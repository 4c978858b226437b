"""The server process of the ``wire-mixed`` workload.

Opens the durable data directory with ``Database.open(sync=True)``,
serves it with a default :class:`~repro.server.PCQEServer`, and prints
``{"port": N}`` once listening.  It then answers one JSON command per
stdin line with one JSON line on stdout:

* ``{"cmd": "trace"}`` wraps the layer functions (see ``layers.py``);
* ``{"cmd": "ledger", "spans": PATH}`` writes the recorded spans to PATH
  and returns the per-layer metrics and the process's peak RSS;
* ``{"cmd": "stop"}`` stops the server and closes the database.

Run only by ``wire.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import SERVER_TARGETS, ledger  # noqa: E402
from stats import peak_rss_mb  # noqa: E402
from tracing import Recorder, install  # noqa: E402

from repro.server import PCQEServer  # noqa: E402
from repro.storage import Database  # noqa: E402
from repro.workload import venture_capital_database  # noqa: E402


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(data_dir: str) -> int:
    db = Database.open(data_dir, sync=True)
    server = PCQEServer(db, venture_capital_database().policies).start()
    recorder: Recorder | None = None
    try:
        _emit({"port": server.port})
        for line in sys.stdin:
            command = json.loads(line)
            cmd = command.get("cmd")
            if cmd == "trace":
                recorder = Recorder()
                install(recorder, SERVER_TARGETS)
                _emit({"ok": True})
            elif cmd == "ledger":
                reply: dict = {"ok": True, "peak_rss_mb": peak_rss_mb()}
                if recorder is not None:
                    recorder.write(command["spans"])
                    reply["layers"] = ledger(recorder, "session.ask")
                    reply["calls"] = dict(recorder.calls)
                _emit(reply)
            elif cmd == "stop":
                break
            else:
                _emit({"ok": False, "error": f"unknown command {cmd!r}"})
    finally:
        server.stop()
        db.close()
    _emit({"ok": True, "stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
