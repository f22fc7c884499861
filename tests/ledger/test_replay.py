"""Replay a session ledger back into a bit-identical SimulationResult."""

from repro.ledger import Ledger, iter_epoch_dicts, replay_result
from repro.service.protocol import encode_payload
from repro.service.session import ProfilingSession
from repro.service.telemetry import epoch_metrics_to_dict

SMALL = {"footprint_pages": 512, "accesses_per_epoch": 2000}


def _ledgered_session(tmp_path, session_id="s1", epochs=4, seed=3):
    params = {
        "workload": "gups",
        "seed": seed,
        "workload_kwargs": dict(SMALL),
    }
    root = Ledger(tmp_path)
    session = ProfilingSession(session_id, **params)
    session.attach_ledger(
        root.create_session(session_id, params, info=session.info())
    )
    session.sim.step(epochs)
    session.close()
    return root, params


class TestReplay:
    def test_replay_is_bit_identical_to_live_run(self, tmp_path):
        root, params = _ledgered_session(tmp_path, epochs=4)
        result = replay_result(
            root.open_session("s1"), meta=root.load_meta("s1")
        )
        direct = ProfilingSession("direct", **params)
        direct.sim.step(4)
        assert [epoch_metrics_to_dict(e) for e in result.epochs] == [
            epoch_metrics_to_dict(e) for e in direct.sim.result.epochs
        ]
        assert result.workload == "gups"
        assert result.tier1_capacity == direct.sim.tier1_capacity
        assert result.mean_hitrate == direct.sim.result.mean_hitrate
        assert result.total_runtime_s == direct.sim.result.total_runtime_s

    def test_iter_epoch_dicts_skips_non_epoch_records(self, tmp_path):
        root = Ledger(tmp_path)
        sl = root.create_session("s1", {"workload": "gups"})
        sl.append_many([("epoch", encode_payload({"epoch": 0}))])
        sl.append_many([("error", encode_payload({"code": "worker_crashed"}))])
        sl.append_many([("epoch", encode_payload({"epoch": 1}))])
        payloads = list(iter_epoch_dicts(sl.read()))
        sl.close()
        assert [p["epoch"] for p in payloads] == [0, 1]

    def test_replay_without_meta_still_exact_epochs(self, tmp_path):
        root, params = _ledgered_session(tmp_path, epochs=2)
        result = replay_result(root.open_session("s1"))
        assert len(result.epochs) == 2
        assert result.workload == ""  # placeholder, but series intact
