"""Golden wire table: every distributed run's answer and traffic, pinned.

The differential suites prove answers and tallies equal to the reference
algorithms; this table additionally pins what only the transport
decides: the message and byte counters, the per-round and per-kind
traffic series and the best-position piggyback tallies.  Each cell runs
one distributed driver over the simulated network and stores

* the sha256 of the canonical JSON (sorted keys, no whitespace) of the
  ranked items, the access tally, the round count, the stop position
  and the full ``extras`` (network snapshot, protocol, owners, width);
* the message and byte totals in clear text, so a mismatch says at a
  glance whether the traffic moved.

The grid: drivers ``ta``, ``bpa`` and ``bpa2``; protocols ``entry``,
``batch`` and ``pipelined``; block widths 1 (classic rounds) and 4
(block rounds); owner layouts ``owners=None`` (one list per owner),
``owners=2``, ``owners=1`` and ``owners=2`` striped; two seeded
databases, uniform n=60 m=4 served from plain lists and zipf n=50 m=3
served from columnar lists.  k is 5 throughout.

How the table was recorded: ``GOLDEN`` is the output of running this
module as a script (``PYTHONPATH=src python
tests/differential/test_golden_wire.py``) on the tree before the
network backend was folded into one request path, so it holds that
tree's wire behaviour; the table is exact and must never be re-recorded
to make a change pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.distributed import DistributedBPA, DistributedBPA2, DistributedTA
from repro.scoring import SUM

K = 5

DRIVERS = {"ta": DistributedTA, "bpa": DistributedBPA, "bpa2": DistributedBPA2}
PROTOCOLS = ("entry", "batch", "pipelined")
WIDTHS = (1, 4)
#: layout label -> (owners, placement strategy)
LAYOUTS = {
    "default": (None, "contiguous"),
    "owners2": (2, "contiguous"),
    "owners1": (1, "contiguous"),
    "striped2": (2, "striped"),
}


def _databases() -> dict:
    uniform = make_generator("uniform").generate(60, 4, seed=7)
    zipf = make_generator("zipf").generate(50, 3, seed=19)
    return {"uniform": uniform, "zipf": ColumnarDatabase.from_database(zipf)}


def _cell(database, driver: str, protocol: str, width: int, layout: str):
    owners, strategy = LAYOUTS[layout]
    result = DRIVERS[driver](
        protocol=protocol, block_width=width, owners=owners, placement=strategy
    ).run(database, K, SUM)
    canonical = json.dumps(
        {
            "items": [[entry.item, entry.score] for entry in result.items],
            "tally": [
                result.tally.sorted,
                result.tally.random,
                result.tally.direct,
            ],
            "rounds": result.rounds,
            "stop_position": result.stop_position,
            "extras": result.extras,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    network = result.extras["network"]
    return (
        hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        network["messages"],
        network["bytes"],
    )


def _cells():
    for source in ("uniform", "zipf"):
        for driver in DRIVERS:
            for protocol in PROTOCOLS:
                for width in WIDTHS:
                    for layout in LAYOUTS:
                        label = f"{source}/{driver}/{protocol}/w{width}/{layout}"
                        yield label, (source, driver, protocol, width, layout)


CELLS = dict(_cells())

GOLDEN: dict[str, tuple[str, int, int]] = {
    "uniform/ta/entry/w1/default": ("9d4db5aaa032104a69218f3ae13a6461ea6569bd0ea8bd3e11e52dbf4cdb0fd5", 576, 11648),
    "uniform/ta/entry/w1/owners2": ("85f004ce790c7f47d08f88c30a9e1b7ee50f11049413e8f6de309c1f2b27173c", 576, 15104),
    "uniform/ta/entry/w1/owners1": ("2fbf56cad8e7cf480f68e90a7a618ff8c04fe1ed5e044673cc3299e19f75327d", 576, 15104),
    "uniform/ta/entry/w1/striped2": ("85f004ce790c7f47d08f88c30a9e1b7ee50f11049413e8f6de309c1f2b27173c", 576, 15104),
    "uniform/ta/entry/w4/default": ("8adb97e27950cf998afc13a0a40cbb3799cfc7b1d3747c005d2e4dec9d683771", 454, 9426),
    "uniform/ta/entry/w4/owners2": ("5a12e3ca8dadb4e83828cad69bc2eafc610aec494e35579a82cb6ecdb38e90cb", 454, 12150),
    "uniform/ta/entry/w4/owners1": ("25ea5745166f09e0e1eeb01a8e9da5ddf8ae37366e4136edba88df2750af9b07", 454, 12150),
    "uniform/ta/entry/w4/striped2": ("5a12e3ca8dadb4e83828cad69bc2eafc610aec494e35579a82cb6ecdb38e90cb", 454, 12150),
    "uniform/ta/batch/w1/default": ("6a50ab4aa74889f3a3b1d92469ecc4d7c89f8bc50236962316501ae812fbdab7", 288, 8984),
    "uniform/ta/batch/w1/owners2": ("82f8e5edc2e7d1a1be5383627b7e10b2070dbbc9eadb823117ba7b716333e70d", 144, 13376),
    "uniform/ta/batch/w1/owners1": ("53dd8c15166ca0fe3d598277e1d82d34cd51c89d7641d56fdcc67b84562ae76f", 72, 12836),
    "uniform/ta/batch/w1/striped2": ("4a494586596a93cb95777661f8a0ad4051a0b8196fefde2c4ba26036d6ce8fc4", 144, 13376),
    "uniform/ta/batch/w4/default": ("5ab3e54053fc3f154d81c6393c1f824f7aab95f8be8fa023541a69a6ab6e5c29", 80, 5300),
    "uniform/ta/batch/w4/owners2": ("f9e65cc12ca32b6251013c37e4a2b6511a4f73dda08b189c6c138fa52c30b190", 40, 6520),
    "uniform/ta/batch/w4/owners1": ("b2df9b411c8baabeb33a0985707a06440ac8d77fab83bef31d40b0bd25cf92d4", 20, 6370),
    "uniform/ta/batch/w4/striped2": ("f9e65cc12ca32b6251013c37e4a2b6511a4f73dda08b189c6c138fa52c30b190", 40, 6520),
    "uniform/ta/pipelined/w1/default": ("3c1bdda80cc779f6ad69479a19804d0f2086111c24d497a3bdaaf44a1c9a1574", 288, 8984),
    "uniform/ta/pipelined/w1/owners2": ("88425636dc8cc6d6e3ed3c107c815aff3a42aac22b5eacebfd7e4f398bd27d6e", 144, 13376),
    "uniform/ta/pipelined/w1/owners1": ("f1b5dde3f2ddda9d233d991ed9c9489af318f9a483b26df426d8771cd1367535", 72, 12836),
    "uniform/ta/pipelined/w1/striped2": ("d16ca9f519ee441caf29164737e93046bc1b3a6acca16706ea363bcca94c30bc", 144, 13376),
    "uniform/ta/pipelined/w4/default": ("48d5f4306bec920ad8f0b216aa1cea2e4f3b9dea0f59bf0f1cb111d90cdd00da", 80, 5300),
    "uniform/ta/pipelined/w4/owners2": ("64de46eac84c2418c573ff8ed7f425a20fad52773fda785d1006446bd2131e86", 40, 6520),
    "uniform/ta/pipelined/w4/owners1": ("a047cf7a0c21be4f8b49e793be41b17f99e850c27fc6c42c5ecf3b1b81c165d9", 20, 6370),
    "uniform/ta/pipelined/w4/striped2": ("64de46eac84c2418c573ff8ed7f425a20fad52773fda785d1006446bd2131e86", 40, 6520),
    "uniform/bpa/entry/w1/default": ("611bf6fb869903e29b218f2958110f6fc6dec9d0d8660cc24411c226844890e9", 544, 15368),
    "uniform/bpa/entry/w1/owners2": ("e9ab7929d99299c6d2a9581e968721db3d5cbf26b4299e8da13a3344abdea2f7", 544, 18632),
    "uniform/bpa/entry/w1/owners1": ("4b426f4fac2174bcae95595941ce5f221bbb3066e14e14789cc7f086a23a5697", 544, 18632),
    "uniform/bpa/entry/w1/striped2": ("e9ab7929d99299c6d2a9581e968721db3d5cbf26b4299e8da13a3344abdea2f7", 544, 18632),
    "uniform/bpa/entry/w4/default": ("537832ae7d01f975d860d14d8550a34051d7baaa015dcc8faee8aa2e0294d05e", 454, 13058),
    "uniform/bpa/entry/w4/owners2": ("71e9f2903746cc2ac53af58f8033bb578e756b849bc3c75a83b3a0c559d968e4", 454, 15782),
    "uniform/bpa/entry/w4/owners1": ("e9416b18048738f616493b5d0152435e0f14c962b093b6e65b7c46792c0d344a", 454, 15782),
    "uniform/bpa/entry/w4/striped2": ("71e9f2903746cc2ac53af58f8033bb578e756b849bc3c75a83b3a0c559d968e4", 454, 15782),
    "uniform/bpa/batch/w1/default": ("e5d342c4bb5d50f7333da07c480b31e6d38fedd56219330332b0e976b43ebdd7", 272, 11832),
    "uniform/bpa/batch/w1/owners2": ("9bc120d45f97246238f7067ed485ed140b9d096d91ad3cb17e14a8151fefe44e", 136, 15980),
    "uniform/bpa/batch/w1/owners1": ("5376eea7941973313f86e9d2cd6ee6dffc9e784617ad3753e48e7e8da3ea94d5", 68, 15470),
    "uniform/bpa/batch/w1/striped2": ("9bc120d45f97246238f7067ed485ed140b9d096d91ad3cb17e14a8151fefe44e", 136, 15980),
    "uniform/bpa/batch/w4/default": ("53cf37f23fa4cc0a74b27b8dda161d93ed8602fe6527a180c0a8bfea864d7336", 80, 7476),
    "uniform/bpa/batch/w4/owners2": ("a5be6b4a09f9c8d7d700b64ad1afca9c1c4f63c07d55dca078ce9be4955fce4e", 40, 8696),
    "uniform/bpa/batch/w4/owners1": ("222942bf95e4cdc985a39454dc4c06e8c24024ca56b8bde9a205bba56986d00d", 20, 8546),
    "uniform/bpa/batch/w4/striped2": ("a5be6b4a09f9c8d7d700b64ad1afca9c1c4f63c07d55dca078ce9be4955fce4e", 40, 8696),
    "uniform/bpa/pipelined/w1/default": ("e1f5df2972e1a2a592963d0c6343a9169fc1663aa68417d5d18eaac9f08c0a76", 272, 11832),
    "uniform/bpa/pipelined/w1/owners2": ("11ac97c62aeed59830bcf718ab249112b4849ed05326fe366f33a1d9a1e70584", 136, 15980),
    "uniform/bpa/pipelined/w1/owners1": ("6d71534cd2c3b3065634e7501b650efaed8447841dccfaec7e353632b1511124", 68, 15470),
    "uniform/bpa/pipelined/w1/striped2": ("11ac97c62aeed59830bcf718ab249112b4849ed05326fe366f33a1d9a1e70584", 136, 15980),
    "uniform/bpa/pipelined/w4/default": ("559ceb578eeb952e66318d05258985e94f9dffe72fa3ae09e933b39d922ebb51", 80, 7476),
    "uniform/bpa/pipelined/w4/owners2": ("9d4923ae6b9b1a1806cfffce8443cdad9a9ab51a9ebfcce7a61e8b24aa019efe", 40, 8696),
    "uniform/bpa/pipelined/w4/owners1": ("b8854e96a7ca41a39bb0310bdf619897218322a162e2a600336ff877c6607d02", 20, 8546),
    "uniform/bpa/pipelined/w4/striped2": ("9d4923ae6b9b1a1806cfffce8443cdad9a9ab51a9ebfcce7a61e8b24aa019efe", 40, 8696),
    "uniform/bpa2/entry/w1/default": ("2299c836e93d5f7b94e0b6a31db6bd9ced7ae3054b92513ce021636c03ed98cc", 384, 8016),
    "uniform/bpa2/entry/w1/owners2": ("849c38f653e33c453b2b446ec2e11510b4498f79f8e4e216e682a0f7863b8633", 384, 10320),
    "uniform/bpa2/entry/w1/owners1": ("6020397f5e3025cc08fbe1e95ac3973dcd9375fdb9f9f7b01cf4da8564350f40", 384, 10320),
    "uniform/bpa2/entry/w1/striped2": ("849c38f653e33c453b2b446ec2e11510b4498f79f8e4e216e682a0f7863b8633", 384, 10320),
    "uniform/bpa2/entry/w4/default": ("d43b35b18ea8afa74dc1629fd48566d6b9615cf589577191a8a367e156ff10bc", 440, 9368),
    "uniform/bpa2/entry/w4/owners2": ("a59c8499e5e869347124475a26c2f6fc58a0903834730ffd8deec743442f3b52", 440, 12008),
    "uniform/bpa2/entry/w4/owners1": ("7782557b73bb7d80b46e371175d60ea45fdc7a5c3f6c4ba4b0bd3fc79e12dc6e", 440, 12008),
    "uniform/bpa2/entry/w4/striped2": ("a59c8499e5e869347124475a26c2f6fc58a0903834730ffd8deec743442f3b52", 440, 12008),
    "uniform/bpa2/batch/w1/default": ("9ad2e7d54cd38e87d9e66eb384733bca78b18e7337acbda97fc0dd8552e19186", 168, 6372),
    "uniform/bpa2/batch/w1/owners2": ("6aa3de544668d2306a525392c429940e5676160570504b3baa57e3368884abb1", 144, 7824),
    "uniform/bpa2/batch/w1/owners1": ("fd3a1d07f06b36c2a892fde556412aa277a584f58b9491ef29f4750cb70569e8", 120, 7956),
    "uniform/bpa2/batch/w1/striped2": ("492cf0572fe78053b9600108f4d61049d1c4fbe9e699c601a072d69301687bcd", 144, 7824),
    "uniform/bpa2/batch/w4/default": ("fe4edc2a4535795f5bfee4765262e60fc523cd396a3802dbdb874a88d970e4dd", 64, 5168),
    "uniform/bpa2/batch/w4/owners2": ("864c317790a42e5e7a4d2956e59c6c93742111e5485234fee37b05d5c9a2c6e7", 32, 6144),
    "uniform/bpa2/batch/w4/owners1": ("0d9328a7173ac0af55246651abb0f3feff956bf007fc7802d5affc15c91087f7", 16, 6024),
    "uniform/bpa2/batch/w4/striped2": ("864c317790a42e5e7a4d2956e59c6c93742111e5485234fee37b05d5c9a2c6e7", 32, 6144),
    "uniform/bpa2/pipelined/w1/default": ("185df39a42630aa269593071ccf7764ad89c95db2dabad0ff0d0aaf1c572b9cf", 168, 6372),
    "uniform/bpa2/pipelined/w1/owners2": ("5b14be0f15a640c6f0c9475feddc0e3343ec12a56b60740503b4ccf2ccf23159", 144, 7824),
    "uniform/bpa2/pipelined/w1/owners1": ("1aa77a006f44743e37fc1f39ac0e27367b184ee5c817c35b77ba3b6932049495", 120, 7956),
    "uniform/bpa2/pipelined/w1/striped2": ("0046c90b23d75dcb6c9daabfcb8a7191aa314f74f4cfb658b650609aa22ab95b", 144, 7824),
    "uniform/bpa2/pipelined/w4/default": ("ea08e93f9d68a39c724c5e3940e14e31d6cd01627db49314256acc8748579a05", 64, 5168),
    "uniform/bpa2/pipelined/w4/owners2": ("3a71c6d3ab0f39111bfc3c16118cd3cba1e1f7676585f18c43c1309736d1551b", 32, 6144),
    "uniform/bpa2/pipelined/w4/owners1": ("f909dccc25da64779e494c37e44c2f129b054fc454d8a08b084085ab3377aec2", 16, 6024),
    "uniform/bpa2/pipelined/w4/striped2": ("3a71c6d3ab0f39111bfc3c16118cd3cba1e1f7676585f18c43c1309736d1551b", 32, 6144),
    "zipf/ta/entry/w1/default": ("34e9c8792b4287006a976979edfde94ef11a0e022aca53f212fbb91693b59684", 90, 1920),
    "zipf/ta/entry/w1/owners2": ("c79ae71ab5e3e9ef200fcf7b8eb7e1879611ed1b5060fd0f5d96660d97a27aba", 90, 2280),
    "zipf/ta/entry/w1/owners1": ("2eeb7871687aba974f9bf4fd650dda7d51ccc89a9a39928a29d6cd820483b08b", 90, 2460),
    "zipf/ta/entry/w1/striped2": ("c79ae71ab5e3e9ef200fcf7b8eb7e1879611ed1b5060fd0f5d96660d97a27aba", 90, 2280),
    "zipf/ta/entry/w4/default": ("6db0bec87009fcb24b8e8516723283314605886d14e2517e5392104b57de07fc", 128, 2768),
    "zipf/ta/entry/w4/owners2": ("df5c24fdb127d6f4528d43b53f52e360d01a5d59738ce5328a058bcbb94a4679", 128, 3272),
    "zipf/ta/entry/w4/owners1": ("0bfc36d56ff2b86d3c2d05c779c57764bd8f898adfa9f8cdc383e67db1049bfe", 128, 3536),
    "zipf/ta/entry/w4/striped2": ("2edd5bd2f8e81633efe825c0bb03bffcbdd2db147a1b05ae2b9f6f4c8b9a984d", 128, 3284),
    "zipf/ta/batch/w1/default": ("16bb25c4e88c07e2e69168f063ef20c26c2f7c530705c45569ac176134c15766", 60, 1695),
    "zipf/ta/batch/w1/owners2": ("7e68f73f1c5697ae1fe643b72fccebb089fe6a0e8794dffe06cd4a7d4002c466", 40, 2305),
    "zipf/ta/batch/w1/owners1": ("9f7a46c2774737d597b76ee4bc489e346cb7bf955eac86bca2aae3f14aaf9c2b", 20, 2535),
    "zipf/ta/batch/w1/striped2": ("7e68f73f1c5697ae1fe643b72fccebb089fe6a0e8794dffe06cd4a7d4002c466", 40, 2305),
    "zipf/ta/batch/w4/default": ("56d2725a3d097e182644770d217f39763ed06cf4b66916106328084557dbb599", 24, 1526),
    "zipf/ta/batch/w4/owners2": ("224d9075dbdd08407f099072667d9cbf95667a3a58854d00f2aae7774f19717b", 16, 1770),
    "zipf/ta/batch/w4/owners1": ("1b4f63bc2d811d94d999308f41b68aa98b92b3ac41ac1230cddb66a38db825c3", 8, 1862),
    "zipf/ta/batch/w4/striped2": ("b5bc781130f139be0adcb04d7367eeca3d04b48824f6452e40be3eaf6110a602", 16, 1770),
    "zipf/ta/pipelined/w1/default": ("211a422c5db32402b87e3bc2b36dbb4e880d151abb7a3c7052d75bd290d16c18", 60, 1695),
    "zipf/ta/pipelined/w1/owners2": ("48e86aaef67388ee5bc94c3c8c7951b90b37492468475566d3284a0a96916440", 40, 2305),
    "zipf/ta/pipelined/w1/owners1": ("eea96b79246e1afae23b87f30d723917a7b09aa28ca552bbbe996e700e8afebb", 20, 2535),
    "zipf/ta/pipelined/w1/striped2": ("48e86aaef67388ee5bc94c3c8c7951b90b37492468475566d3284a0a96916440", 40, 2305),
    "zipf/ta/pipelined/w4/default": ("76aee0afe31d10cbc1a3dca7c90177cb470b8bf9f184b6f95aaf0f4a2f1a0f4b", 24, 1526),
    "zipf/ta/pipelined/w4/owners2": ("0ee732f8d6c503d94e398fc8b4cb4473b8d9b4c4f423d11ddf53fc82bc755e5d", 16, 1770),
    "zipf/ta/pipelined/w4/owners1": ("b129910977e993deb8b86df2ecf1280e4451379f690ca95fe6c36347acaeca78", 8, 1862),
    "zipf/ta/pipelined/w4/striped2": ("4aa90118e244e3a3c831ff9c33f62e7dff56a137d8ae3fd62acf45e0cd475baf", 16, 1770),
    "zipf/bpa/entry/w1/default": ("7f775d830d23ade8d24a40cc94bdb2fb1c9d3ae47e39993a8ecdf649ba9ffa94", 90, 2640),
    "zipf/bpa/entry/w1/owners2": ("99e629c026cb4c8c8acf9a9164ebb9f3fef3df8fd4d0748dd7b35c39a5440aee", 90, 3000),
    "zipf/bpa/entry/w1/owners1": ("2a072179cf79105acfddaf8c8fa036603a6040ed1eac122750e537f4dfe6bcc0", 90, 3180),
    "zipf/bpa/entry/w1/striped2": ("99e629c026cb4c8c8acf9a9164ebb9f3fef3df8fd4d0748dd7b35c39a5440aee", 90, 3000),
    "zipf/bpa/entry/w4/default": ("840608eed8b3ac52495ed44769cd0fa5e4e6b9892ab30e7b667f1a59cb9cd4d0", 128, 3792),
    "zipf/bpa/entry/w4/owners2": ("937fafd432dd82141affb6009026ef22b4f8dbea23926b9b5633e790e6e706b3", 128, 4296),
    "zipf/bpa/entry/w4/owners1": ("88e95c2d203a160fc595f3c086ce80617a59f0d52427c0380cb118aa991366c7", 128, 4560),
    "zipf/bpa/entry/w4/striped2": ("6d3ae63dd9b86c4796fe12586b6bb7b94ceadda69933602b34019e58fe730dd6", 128, 4308),
    "zipf/bpa/batch/w1/default": ("3ea11a155ff7ef1562b655b88f74493f48909a46467efa5115b8e5593cfa5f55", 60, 2310),
    "zipf/bpa/batch/w1/owners2": ("780c36b7ddfbd868bdb6a9cc400631ffc7ea56d8a1395f97622f422575297d6e", 40, 2920),
    "zipf/bpa/batch/w1/owners1": ("a787118dfcfa6b2877967ad25098034559f0138c51ad712994a047e7a8645600", 20, 3150),
    "zipf/bpa/batch/w1/striped2": ("780c36b7ddfbd868bdb6a9cc400631ffc7ea56d8a1395f97622f422575297d6e", 40, 2920),
    "zipf/bpa/batch/w4/default": ("bd621162bfa3a77a06dc33775757499decf3b4afc60cc24d1b961f6293cb9539", 24, 2146),
    "zipf/bpa/batch/w4/owners2": ("3c1a086bd940d7a6679bae72ca07e11235a84731c85a32c2dcc21f5cdf252cf9", 16, 2390),
    "zipf/bpa/batch/w4/owners1": ("101b06bbbf18890ef711373c2dc99380086d7d5265c10b13bee1983c3aa221ea", 8, 2482),
    "zipf/bpa/batch/w4/striped2": ("ca001aa491a64e46a1eff917834e076dd0c443dafc854942debe379b87ed3d26", 16, 2390),
    "zipf/bpa/pipelined/w1/default": ("66005f650198691c612066c3ff11af049859b6b8663ece2b1d07ede14968f874", 60, 2310),
    "zipf/bpa/pipelined/w1/owners2": ("3f154159a380ef51d57c17020b46a7370fd3b76730601858fea8007e69034306", 40, 2920),
    "zipf/bpa/pipelined/w1/owners1": ("cb7e198d61c39c06ae116e8c2f9e76acfa5414845a412b1dae333378a6e48ed0", 20, 3150),
    "zipf/bpa/pipelined/w1/striped2": ("3f154159a380ef51d57c17020b46a7370fd3b76730601858fea8007e69034306", 40, 2920),
    "zipf/bpa/pipelined/w4/default": ("23d1d6ac50c99297911fff4b383e553b38398fd3edaa67cf6c088f5c095e112e", 24, 2146),
    "zipf/bpa/pipelined/w4/owners2": ("43a91c9a74fea3df48e9e317b66d0ea59117c4c1f35c70bb6ef679c738b72e62", 16, 2390),
    "zipf/bpa/pipelined/w4/owners1": ("4c835e1aa4ec6fe5b9b327c92c7a03e8e1d529fe2f07b8d43ce1fd56280e6744", 8, 2482),
    "zipf/bpa/pipelined/w4/striped2": ("1577e9c0a9a3701d90264d0ae0d51b9388f02f705bb55ad9cda438085e6fa473", 16, 2390),
    "zipf/bpa2/entry/w1/default": ("4ad79513576e8057acbfe4653a219319690d2a7dd5804e12072b8b268a29a866", 90, 1936),
    "zipf/bpa2/entry/w1/owners2": ("1a0d863580d8f7e21a2d827a77ba7f202d6b5d0353f7a1de7e35e9f07a34328d", 90, 2296),
    "zipf/bpa2/entry/w1/owners1": ("e79fdbc44c4ae58b13f0ef420368153ef71b903896495f6ba38ef471f396bac3", 90, 2476),
    "zipf/bpa2/entry/w1/striped2": ("1a0d863580d8f7e21a2d827a77ba7f202d6b5d0353f7a1de7e35e9f07a34328d", 90, 2296),
    "zipf/bpa2/entry/w4/default": ("bfb5fb287d732200805e406234e29fb1af2315a4a49e6f62631d2e86b211434d", 126, 2730),
    "zipf/bpa2/entry/w4/owners2": ("d62204a956a370a4828249f95b3b50d370106f9b98d22f043515535662b4b771", 126, 3234),
    "zipf/bpa2/entry/w4/owners1": ("14f18b36f16e45aa168597d0a217ee6c6a16c5b9483f2e0b1ac748c8b7b1050a", 126, 3486),
    "zipf/bpa2/entry/w4/striped2": ("d62204a956a370a4828249f95b3b50d370106f9b98d22f043515535662b4b771", 126, 3234),
    "zipf/bpa2/batch/w1/default": ("1117b6e11574501cd6762d9fd35aa74846ed970922f234e2796b0e53ce941f47", 50, 1731),
    "zipf/bpa2/batch/w1/owners2": ("08470a60d15277dd032f2b454fad082f206bdc914e3a8c3bbf69c5e06545110f", 40, 2156),
    "zipf/bpa2/batch/w1/owners1": ("247ac72c96330b474cedd19ec947fa55787cfa8b7870aaa8f95bdfb931093c96", 40, 2216),
    "zipf/bpa2/batch/w1/striped2": ("6f5336ec803ce12f67bf64211d165332ea64c935f517eb108e91e1d99c17587d", 50, 1911),
    "zipf/bpa2/batch/w4/default": ("a6b70b5fd1922a30892bdf13aad61ff75a167c85ed1f15a74a1fc6d9229e35c1", 24, 1596),
    "zipf/bpa2/batch/w4/owners2": ("e44459b396bfd4154c382ee7be38a582c81d62023885d7c6f6271d4fc2658a7d", 16, 1840),
    "zipf/bpa2/batch/w4/owners1": ("8b010555d630d970ef89a8fd0b460e3813c8e4ffe092f746cc3119b4383fa23a", 8, 1932),
    "zipf/bpa2/batch/w4/striped2": ("e44459b396bfd4154c382ee7be38a582c81d62023885d7c6f6271d4fc2658a7d", 16, 1840),
    "zipf/bpa2/pipelined/w1/default": ("f40b7bd0b646371eff2d1c64990de81578074db6a799957f5c658f27e66e117c", 50, 1731),
    "zipf/bpa2/pipelined/w1/owners2": ("11fa11f66bf6c84b6f34611eec924755f4fec850ea7b95ffd9d58b2f2b79257a", 40, 2156),
    "zipf/bpa2/pipelined/w1/owners1": ("9ed872726aac751f87160b4a2987df37c268ff7d873738019a9f9c8f6e8f632a", 40, 2216),
    "zipf/bpa2/pipelined/w1/striped2": ("ffef65898a9bc92c161ccf393e65a1b45c3a1fa4e0ebc57dad9e0d9d65258a98", 50, 1911),
    "zipf/bpa2/pipelined/w4/default": ("29ebf630b638cd704c57a39ecdb9ef619c76ebc6439f42ec1ab2674397996bb0", 24, 1596),
    "zipf/bpa2/pipelined/w4/owners2": ("61b465249b38b18973771e71e138317fc53535bd6aff06d257afa6c5d3a6b5d8", 16, 1840),
    "zipf/bpa2/pipelined/w4/owners1": ("8cf9ea3423abfa6df4014acb07b383e94681d7365bbfed9b7a5aa00b19f5fc66", 8, 1932),
    "zipf/bpa2/pipelined/w4/striped2": ("61b465249b38b18973771e71e138317fc53535bd6aff06d257afa6c5d3a6b5d8", 16, 1840),
}


@pytest.fixture(scope="module")
def databases():
    return _databases()


def test_table_covers_the_grid():
    assert sorted(GOLDEN) == sorted(CELLS)


@pytest.mark.parametrize("label", list(CELLS))
def test_wire_matches_golden(databases, label):
    source, *rest = CELLS[label]
    assert _cell(databases[source], *rest) == GOLDEN[label]


if __name__ == "__main__":
    recorded = _databases()
    print("GOLDEN: dict[str, tuple[str, int, int]] = {")
    for label, (source, *rest) in CELLS.items():
        print(f"    {label!r}: {_cell(recorded[source], *rest)!r},")
    print("}")
