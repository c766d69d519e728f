#!/usr/bin/env python
"""From pixels to BE-strings: the full front-to-back pipeline.

The paper assumes icon objects and their MBRs have already been extracted from
the raw image.  This example shows the whole path on synthetic data without
any imaging dependency beyond numpy, which the rest of the package does not
need: install it with the ``raster`` extra (``pip install .[raster]``).

1. render a symbolic picture into an integer label grid (the stand-in for a
   segmented raster image),
2. recover icons + MBRs via connected-component analysis,
3. encode the recovered picture as a 2D BE-string, and
4. verify the recovered encoding retrieves the original scene from a database.

Run with:  python examples/pixels_to_strings.py
"""

from repro.core.construct import encode_picture
from repro.datasets.scenes import office_scene, traffic_scene
from repro.iconic.raster import LabeledRaster
from repro.retrieval.system import RetrievalSystem


def main() -> None:
    scene = traffic_scene(0)

    # 1. Render to a label grid ("the image").
    raster, value_map = LabeledRaster.render(scene)
    print(f"rendered {scene.name} to a {raster.width}x{raster.height} label grid "
          f"({raster.coverage() * 100:.1f}% of pixels covered by icons)")

    # 2. Segment it back into icons with MBRs.
    labels = {value: identifier.split('#')[0] for value, identifier in value_map.items()}
    recovered = raster.to_picture(value_labels=labels, name="recovered-traffic")
    print(f"segmentation recovered {len(recovered)} icon objects: {recovered.identifiers}")

    # 3. Encode the recovered picture.
    original_bestring = encode_picture(scene)
    recovered_bestring = encode_picture(recovered)
    identical = (
        original_bestring.x.symbols == recovered_bestring.x.symbols
        and original_bestring.y.symbols == recovered_bestring.y.symbols
    )
    print(f"BE-string of the recovered picture identical to the original: {identical}")
    print("x axis:", recovered_bestring.x.to_text())

    # 4. Use the recovered picture as a query against a database.
    database = [office_scene(i) for i in range(4)] + [traffic_scene(i) for i in range(4)]
    system = RetrievalSystem.from_pictures(database)
    print()
    print("=== Querying the database with the recovered picture ===")
    for result in system.query(recovered).limit(4).execute():
        print(" ", result.describe())


if __name__ == "__main__":
    main()
