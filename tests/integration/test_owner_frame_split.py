"""A real owner process reports where its frame time goes.

The owner's socket loop times every frame's decode, handle and encode;
the metrics document sums each stage beside the frame count, and
``repro-topk cluster stats`` prints them.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.distributed.socket_transport import SocketCluster
from repro.distributed.transport import NetworkBackend
from repro.exec.drivers import DRIVERS
from repro.scoring import SUM


def test_frame_split_counts_every_request_and_times_each_stage(tmp_path, capsys):
    database = ColumnarDatabase.from_database(
        make_generator("uniform").generate(200, 4, seed=3)
    )
    with SocketCluster(database, owners=1) as cluster:
        with cluster.connect() as fabric:
            sent = []
            send = fabric._send
            fabric._send = lambda address, frame: (
                sent.append(address), send(address, frame)
            )
            for name, k in (("ta-block", 5), ("bpa2-block", 3), ("ta-block", 10)):
                fabric.request("owner/0", "reset")
                backend = NetworkBackend.remote(
                    fabric, m=4, n=200, protocol="pipelined",
                    placement=cluster.placement,
                )
                DRIVERS[name](backend, k, SUM, width=4)
                backend.total_tally()  # end-of-query state frames count too
            frames = fabric.request("owner/0", "state", {"metrics": True})["frames"]
        assert frames["count"] == len(sent) - 1  # all but the metrics request
        for stage in ("decode", "handle", "encode"):
            assert frames[f"{stage}_seconds"] > 0
        # The owner serves one connection at a time: the CLI's comes next.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"ports": cluster.ports}))
        assert main(["cluster", "stats", "--spec", str(spec)]) == 0
    assert f"frames: {len(sent):,} served" in capsys.readouterr().out
