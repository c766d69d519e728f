"""Unit tests for the raster substrate (rendering and segmentation)."""

import pytest

from repro.geometry.rectangle import Rectangle
from repro.iconic.picture import SymbolicPicture

# The raster layer is the package's only numpy user (the ``raster`` extra).
np = pytest.importorskip("numpy")

from repro.iconic.raster import LabeledRaster, segment_picture_roundtrip  # noqa: E402


class TestConstruction:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            LabeledRaster(np.zeros((2, 2, 2), dtype=int))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LabeledRaster(np.zeros((0, 5), dtype=int))

    def test_rejects_float_grid(self):
        with pytest.raises(ValueError):
            LabeledRaster(np.zeros((3, 3), dtype=float))

    def test_rejects_negative_labels(self):
        grid = np.zeros((3, 3), dtype=int)
        grid[0, 0] = -1
        with pytest.raises(ValueError):
            LabeledRaster(grid)

    def test_grid_is_copied(self):
        grid = np.zeros((3, 3), dtype=int)
        raster = LabeledRaster(grid)
        grid[0, 0] = 9
        assert raster.grid[0, 0] == 0

    def test_dimensions_and_values(self):
        grid = np.zeros((4, 6), dtype=int)
        grid[1, 2] = 3
        raster = LabeledRaster(grid)
        assert raster.height == 4
        assert raster.width == 6
        assert raster.values == [3]
        assert raster.coverage() == pytest.approx(1 / 24)


class TestConnectedComponents:
    def test_single_block(self):
        grid = np.zeros((5, 5), dtype=int)
        grid[1:3, 2:4] = 7
        regions = LabeledRaster(grid).connected_components()
        assert len(regions) == 1
        region = regions[0]
        assert region.value == 7
        assert region.pixel_count == 4
        # rows 1-2 from the top of a 5-row grid -> cartesian y in [2, 4].
        assert region.mbr == Rectangle(2.0, 2.0, 4.0, 4.0)

    def test_two_blocks_same_value_are_separate_regions(self):
        grid = np.zeros((5, 5), dtype=int)
        grid[0, 0] = 2
        grid[4, 4] = 2
        regions = LabeledRaster(grid).connected_components()
        assert len(regions) == 2
        assert all(region.value == 2 for region in regions)

    def test_diagonal_pixels_joined_only_with_8_connectivity(self):
        grid = np.zeros((3, 3), dtype=int)
        grid[0, 0] = 1
        grid[1, 1] = 1
        assert len(LabeledRaster(grid).connected_components(connectivity=4)) == 2
        assert len(LabeledRaster(grid).connected_components(connectivity=8)) == 1

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError):
            LabeledRaster(np.zeros((2, 2), dtype=int)).connected_components(connectivity=6)


class TestRenderAndSegment:
    def test_render_marks_each_icon(self, two_object_picture):
        raster, value_map = LabeledRaster.render(two_object_picture)
        assert sorted(value_map.values()) == ["A", "B"]
        assert raster.values == [1, 2]

    def test_to_picture_uses_value_labels(self):
        grid = np.zeros((6, 6), dtype=int)
        grid[0:2, 0:2] = 1
        grid[4:6, 4:6] = 2
        picture = LabeledRaster(grid).to_picture(value_labels={1: "sky", 2: "sea"})
        assert set(picture.labels) == {"sky", "sea"}

    def test_to_picture_defaults_label_names(self):
        grid = np.zeros((4, 4), dtype=int)
        grid[0, 0] = 5
        picture = LabeledRaster(grid).to_picture()
        assert picture.labels == ["object5"]

    def test_roundtrip_preserves_non_overlapping_mbrs(self, two_object_picture):
        recovered = segment_picture_roundtrip(two_object_picture)
        assert recovered.identifiers == two_object_picture.identifiers
        for identifier in two_object_picture.identifiers:
            assert recovered.icon(identifier).mbr == two_object_picture.icon(identifier).mbr

    def test_roundtrip_on_integer_grid_scene(self):
        picture = SymbolicPicture.build(
            width=20,
            height=15,
            objects=[
                ("a", Rectangle(1, 1, 5, 4)),
                ("b", Rectangle(7, 2, 12, 9)),
                ("c", Rectangle(14, 10, 19, 14)),
            ],
        )
        recovered = segment_picture_roundtrip(picture)
        assert len(recovered) == 3
        for identifier in picture.identifiers:
            assert recovered.icon(identifier).mbr == picture.icon(identifier).mbr
