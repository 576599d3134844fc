"""Telemetry frames, the drop-counting channel, and worker streaming."""

import json
import queue

import pytest

from repro.config import fgnvm
from repro.errors import ReproError
from repro.obs.stream import (
    DEFAULT_CAPACITY,
    FR_DRIFT,
    FR_ENGINE,
    FR_EPOCH,
    FR_JOB_END,
    FR_JOB_START,
    FRAME_KINDS,
    FRAME_SCHEMA,
    TelemetryChannel,
    TelemetryFrame,
    activate,
    active_channel,
    epoch_payload,
    frame_from_json,
    frame_to_json,
    job_label,
    read_spool,
    streamed_simulate,
    validate_frame,
    write_spool_line,
)
from repro.sim.epochs import EpochSample
from repro.sim.parallel import ExperimentJob, execute_job
from repro.sim.simulator import Simulator, simulate
from repro.workloads.synthetic import multi_stream_kernel
from tests.dense_tick import dense


def small(cfg, epoch_cycles=500):
    cfg.org.rows_per_bank = 512
    cfg.sim.epoch_cycles = epoch_cycles
    return cfg


def trace():
    return multi_stream_kernel(
        300, streams=4, gap=6, write_fraction=0.25, seed=5,
    )


def make_job(epoch_cycles=500, benchmark="mcf", requests=300):
    return ExperimentJob(
        small(fgnvm(4, 4), epoch_cycles), benchmark, requests
    )


@pytest.fixture(autouse=True)
def no_active_channel():
    """Every test starts and ends with streaming off."""
    previous = activate(None)
    yield
    activate(previous)


class TestFrameSchema:
    def sample_frame(self):
        return TelemetryFrame(
            kind=FR_EPOCH, seq=3, job="cfg/mcf/300", worker=42, t=1.5,
            payload={
                "epoch": 0, "start_cycle": 0, "instructions": 10,
                "reads": 4, "writes": 1, "row_hits": 2, "pending": 0,
                "ipc": 0.5, "hit_rate": 0.5,
            },
        )

    def test_roundtrip(self):
        frame = self.sample_frame()
        data = frame_to_json(frame)
        assert data["schema"] == FRAME_SCHEMA
        assert validate_frame(data) == []
        back = frame_from_json(json.loads(json.dumps(data)))
        assert back.kind == frame.kind
        assert back.seq == frame.seq
        assert back.payload == frame.payload

    def test_every_kind_has_required_keys_contract(self):
        for kind in FRAME_KINDS:
            assert kind in (FR_JOB_START, FR_EPOCH, FR_JOB_END,
                            FR_ENGINE, FR_DRIFT)

    def test_wrong_schema_rejected(self):
        data = frame_to_json(self.sample_frame())
        data["schema"] = "bogus-v9"
        problems = validate_frame(data)
        assert any("schema" in p for p in problems)
        with pytest.raises(ReproError):
            frame_from_json(data)

    def test_unknown_kind_rejected(self):
        data = frame_to_json(self.sample_frame())
        data["kind"] = "mystery"
        assert any("kind" in p for p in validate_frame(data))

    def test_missing_payload_key_rejected(self):
        data = frame_to_json(self.sample_frame())
        del data["payload"]["ipc"]
        assert any("ipc" in p for p in validate_frame(data))

    def test_negative_seq_rejected(self):
        data = frame_to_json(self.sample_frame())
        data["seq"] = -1
        assert any("seq" in p for p in validate_frame(data))


class TestChannel:
    def test_publish_and_drain(self):
        channel = TelemetryChannel.serial()
        assert channel.publish(FR_ENGINE, payload={"jobs_total": 2,
                                                   "jobs_done": 0})
        frames = channel.drain()
        assert len(frames) == 1
        assert frames[0].kind == FR_ENGINE
        assert frames[0].seq == 0
        assert channel.dropped == 0

    def test_full_queue_counts_drops_and_never_blocks(self):
        """The bug-guard: a full queue costs frames, never a worker."""
        channel = TelemetryChannel(queue.Queue(maxsize=2), capacity=2)
        published = [channel.publish(FR_ENGINE, payload={}) for _ in range(5)]
        # publish() returned immediately every time (we got here), the
        # first two made it, the rest were dropped and counted.
        assert published == [True, True, False, False, False]
        assert channel.dropped == 3
        assert len(channel.drain()) == 2

    def test_drops_reported_cumulatively_in_job_end(self):
        channel = TelemetryChannel(queue.Queue(maxsize=3), capacity=3)
        result = streamed_simulate(channel, make_job(), trace())
        assert result.cycles > 0
        # With room for only 3 frames most of the stream dropped, but
        # the run completed and the drops were counted.
        assert channel.dropped > 0

    def test_sequence_numbers_count_all_attempts(self):
        channel = TelemetryChannel(queue.Queue(maxsize=1), capacity=1)
        channel.publish(FR_ENGINE, payload={})
        channel.publish(FR_ENGINE, payload={})
        frames = channel.drain()
        assert frames[0].seq == 0
        assert channel.dropped == 1

    def test_default_capacity(self):
        assert TelemetryChannel.serial().capacity == DEFAULT_CAPACITY


class TestStreamedSimulate:
    def test_frame_stream_shape(self):
        channel = TelemetryChannel.serial()
        job = make_job()
        result = streamed_simulate(channel, job, trace())
        frames = channel.drain()
        kinds = [f.kind for f in frames]
        assert kinds[0] == FR_JOB_START
        assert kinds[-1] == FR_JOB_END
        assert kinds.count(FR_EPOCH) == len(result.epochs)
        label = job_label(job)
        assert all(f.job == label for f in frames)
        for frame in frames:
            assert validate_frame(frame_to_json(frame)) == []
        end = frames[-1].payload
        assert end["cycles"] == result.cycles
        assert end["instructions"] == result.instructions
        assert end["dropped_frames"] == 0

    def test_streaming_never_perturbs_results(self):
        """Streamed and plain runs are bit-identical."""
        channel = TelemetryChannel.serial()
        streamed = streamed_simulate(channel, make_job(), trace())
        plain = simulate(make_job().config, trace())
        assert streamed.summary() == plain.summary()
        assert streamed.epochs == plain.epochs
        assert streamed.cycles == plain.cycles

    def test_epochs_off_streams_lifecycle_only(self):
        channel = TelemetryChannel.serial()
        streamed_simulate(channel, make_job(epoch_cycles=0), trace())
        kinds = [f.kind for f in channel.drain()]
        assert kinds == [FR_JOB_START, FR_JOB_END]


class TestExecuteJobStreaming:
    def test_no_channel_means_plain_path(self):
        assert active_channel() is None
        result = execute_job(ExperimentJob(
            small(fgnvm(4, 4)), "mcf", 200
        ))
        assert result.cycles > 0

    def test_active_channel_streams(self):
        channel = TelemetryChannel.serial()
        activate(channel)
        job = ExperimentJob(small(fgnvm(4, 4)), "mcf", 200)
        streamed = execute_job(job)
        frames = channel.drain()
        assert frames[0].kind == FR_JOB_START
        assert frames[-1].kind == FR_JOB_END
        activate(None)
        plain = execute_job(job)
        assert streamed.summary() == plain.summary()

    def test_activate_returns_previous(self):
        first = TelemetryChannel.serial()
        second = TelemetryChannel.serial()
        assert activate(first) is None
        assert activate(second) is first
        assert activate(None) is second


class TestStreamedGapEquivalence:
    """Quiet-cycle-skipped gaps stream the same epoch series as batch.

    ``observe_gap`` backfills boundaries the event-driven clock jumped
    over; the streaming hook fires per materialised sample, so the
    streamed series must equal both the batch series of the same run
    and the series of a simulator that never skips.  This pins the
    satellite contract in ``tests/obs/`` with the exact recipe the
    epoch suite uses.
    """

    @pytest.mark.parametrize("epoch_cycles", (250, 500, 1000))
    def test_streamed_equals_batch_across_gap_skips(self, epoch_cycles):
        channel = TelemetryChannel.serial()
        job = make_job(epoch_cycles)
        streamed = streamed_simulate(channel, job, trace())
        epoch_frames = [f for f in channel.drain()
                        if f.kind == FR_EPOCH]
        cfg = job.config
        ratio = cfg.cpu.cpu_cycles_per_mem_cycle(cfg.timing.tck_ns)
        batch_payloads = [
            epoch_payload(sample, epoch_cycles, ratio)
            for sample in streamed.epochs
        ]
        assert [f.payload for f in epoch_frames] == batch_payloads

    @pytest.mark.parametrize("epoch_cycles", (250, 500))
    def test_streamed_series_matches_unskipped_loop(self, epoch_cycles):
        samples = []
        cfg = small(fgnvm(4, 4), epoch_cycles)
        sim = Simulator(cfg, trace(), epoch_hook=samples.append)
        skipped = sim.run()
        cfg2 = small(fgnvm(4, 4), epoch_cycles)
        unskipped = dense(Simulator(cfg2, trace())).run()
        assert samples == unskipped.epochs
        assert skipped.epochs == unskipped.epochs
        assert skipped.summary() == unskipped.summary()

    def test_hook_sees_every_sample_in_order(self):
        samples = []
        cfg = small(fgnvm(4, 4))
        result = Simulator(cfg, trace(), epoch_hook=samples.append).run()
        assert samples == result.epochs
        assert [s.epoch for s in samples] == list(range(len(samples)))


class TestEpochPayload:
    def test_payload_fields(self):
        sample = EpochSample(
            epoch=2, start_cycle=1000, instructions=50, reads=10,
            writes=5, row_hits=4, pending=3,
        )
        payload = epoch_payload(sample, 500, cpu_ratio=4.0)
        assert payload["epoch"] == 2
        assert payload["ipc"] == round(50 / (500 * 4.0), 6)
        assert payload["hit_rate"] == 0.4
        assert payload["pending"] == 3


class TestSpool:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        frames = [
            TelemetryFrame(kind=FR_ENGINE, seq=i, worker=1, t=float(i),
                           payload={"jobs_total": 4, "jobs_done": i})
            for i in range(3)
        ]
        with path.open("w", encoding="utf-8") as handle:
            for frame in frames:
                write_spool_line(handle, frame)
        loaded, offset = read_spool(path)
        assert [f.seq for f in loaded] == [0, 1, 2]
        assert offset == path.stat().st_size

    def test_tail_offset_resumes(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        frame = TelemetryFrame(kind=FR_ENGINE, seq=0, worker=1, t=0.0,
                               payload={"jobs_total": 1, "jobs_done": 0})
        with path.open("w", encoding="utf-8") as handle:
            write_spool_line(handle, frame)
        _, offset = read_spool(path)
        with path.open("a", encoding="utf-8") as handle:
            write_spool_line(handle, TelemetryFrame(
                kind=FR_ENGINE, seq=1, worker=1, t=1.0,
                payload={"jobs_total": 1, "jobs_done": 1},
            ))
        fresh, _ = read_spool(path, offset)
        assert [f.seq for f in fresh] == [1]

    def test_torn_tail_left_for_next_poll(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        frame = TelemetryFrame(kind=FR_ENGINE, seq=0, worker=1, t=0.0,
                               payload={"jobs_total": 1, "jobs_done": 0})
        with path.open("w", encoding="utf-8") as handle:
            write_spool_line(handle, frame)
            handle.write('{"schema": "repro-telemetry-frame-v1", "ki')
        frames, offset = read_spool(path)
        assert len(frames) == 1  # the torn line is not consumed
        with path.open("r", encoding="utf-8") as handle:
            handle.seek(offset)
            assert handle.read().startswith('{"schema"')

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text('{"not": "a frame"}\n', encoding="utf-8")
        with pytest.raises(ReproError):
            read_spool(path)
