import base64

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpo import records
from lpo.core import validate_template
from lpo.evaluator import PerExample, ScoredPrompt
from lpo.explorer import CandidateRecord, Provenance
from lpo.optimizer import IterationRecord, RunRecord
from lpo.records import RECORD_VERSION, read_run_record, write_run_record

STAMP = "2025-01-01T00:00:00+00:00"
# negative zero, the smallest and largest subnormals, and the ends of the range
SPECIAL = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308)


def make_record(embedding, n_iterations=1) -> RunRecord:
    seed = validate_template("Classify: {text}", template_id="seed")
    scored = ScoredPrompt(template=seed, accuracy=1.0, n_correct=1, n_total=1,
                          per_example=(PerExample(0, "Positive", "positive", True),),
                          eval_set_id="e")
    iterations = []
    for index in range(1, n_iterations + 1):
        candidate = CandidateRecord(
            id=f"it{index}-c0", embedding=embedding,
            # drawn parameters arrive as NumPy scalars
            provenance=Provenance(kind="perturb", parents=("seed",),
                                  sigma=np.float64(0.1), noise_seed=np.int64(7)),
            decoded_text="Label: {text}", invalid_reason=None)
        iterations.append(IterationRecord(
            index=index, seeds=[seed], candidates=[candidate], scored=[scored],
            selected_ids=["seed"], warnings=[], partial=False,
            started_at=STAMP, finished_at=STAMP))
    return RunRecord(config={"select_n": np.int64(3)}, dataset={"examples": 1},
                     iterations=iterations, budget_calls=2, budget_tokens=30, warnings=[],
                     started_at=STAMP, finished_at=STAMP)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.float64, st.integers(1, 2048),
                  elements=st.one_of(st.sampled_from(SPECIAL),
                                     st.floats(allow_nan=False, allow_infinity=False))))
    @example(np.array(SPECIAL))
    def test_embeddings_decode_bit_exact_and_writes_repeat(self, tmp_path, embedding):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_run_record(make_record(embedding), first)
        write_run_record(make_record(embedding.copy()), second)
        assert first.read_bytes() == second.read_bytes()
        header, iterations = read_run_record(first)
        assert header["version"] == RECORD_VERSION == 3
        assert header["config"] == {"select_n": 3}
        stored = iterations[0]["candidates"][0]
        decoded = np.frombuffer(base64.b64decode(stored["embedding"]), "<f8")
        assert decoded.tobytes() == embedding.astype("<f8").tobytes()
        assert stored["provenance"]["noise_seed"] == 7
        assert stored["provenance"]["sigma"] == 0.1


class TestAtomicWrite:
    def test_failure_mid_write_keeps_the_earlier_record(self, tmp_path, monkeypatch):
        path = tmp_path / "run_record.jsonl"
        write_run_record(make_record(np.ones(3)), path)
        before = path.read_bytes()
        encode = records.iteration_to_dict

        def fail_on_second(it):
            if it.index == 2:
                raise RuntimeError("cannot serialise")
            return encode(it)

        monkeypatch.setattr(records, "iteration_to_dict", fail_on_second)
        with pytest.raises(RuntimeError, match="cannot serialise"):
            write_run_record(make_record(np.zeros(3), n_iterations=3), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run_record.jsonl"]
        header, iterations = read_run_record(path)
        assert len(iterations) == 1
