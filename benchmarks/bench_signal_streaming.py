"""SIGSTREAM — streaming DSP front-end vs its block-mode oracles.

Measures the three streaming primitives against the exact references
their equivalence properties are proven against:

* **overlap_save_fir** — :func:`repro.signal.streaming.streaming_convolve`
  (FFT overlap-save, chunked input) vs direct time-domain
  ``np.convolve(x, h)[:n]`` for a long FIR;
* **multistage_decimate** — the gated multi-stage polyphase chain vs a
  single-stage design (one long anti-alias filter at the full input
  rate, then downsample) computing the same protected band;
* **streaming_stft** — chunk-fed :class:`StreamingSTFT` vs the block
  :func:`repro.signal.stft.stft` (the streaming path trades per-frame
  Python overhead for bounded memory, so its ratio is expected *below*
  1 and the gate guards it against getting dramatically worse).

Every row carries ``speedup`` (reference wall / streaming wall) and
``samples_per_s`` (streaming throughput), both replayed by
``tools/bench_gate.py`` against the committed snapshot.  Refresh with::

    PYTHONPATH=src python -m pytest benchmarks/bench_signal_streaming.py \
        -m perf --commit-results
"""

from __future__ import annotations

import numpy as np
import pytest

from _harness import best_of, maybe_write_bench_json
from conftest import banner
from repro.signal import (
    StreamingSTFT,
    design_decimator,
    design_lowpass,
    get_window,
    stft,
    streaming_convolve,
)

pytestmark = pytest.mark.perf

_REPEATS = 5
_CHUNK = 4096

_FIR_N = 200_000
_FIR_TAPS = 1024          # design length hint; forced odd by the designer

_DEC_N = 200_000
_DEC_FACTOR = 32          # factors as [8, 4]
_DEC_ATTEN_DB = 70.0
_DEC_PASSBAND = 0.8

_STFT_N = 120_000
_STFT_LG = 256
_STFT_HOP = 64


def _bench_overlap_save() -> dict:
    rng = np.random.default_rng(11)
    x = rng.standard_normal(_FIR_N)
    taps, _ = design_lowpass(0.04, 0.06, atten_db=80.0, numtaps=_FIR_TAPS)

    ref, t_ref = best_of(lambda: np.convolve(x, taps)[:_FIR_N], _REPEATS)
    got, t_str = best_of(
        lambda: streaming_convolve(x, taps, chunk_size=_CHUNK), _REPEATS)
    assert np.max(np.abs(got - ref)) < 1e-9
    return {"family": "overlap_save_fir", "n": _FIR_N, "n_taps": taps.size,
            "chunk": _CHUNK, "reference_s": t_ref, "streaming_s": t_str,
            "samples_per_s": _FIR_N / t_str,  # numlint: disable=NL002 -- measured wall time of real work, strictly positive
            "speedup": t_ref / t_str}  # numlint: disable=NL002 -- measured wall time of real work, strictly positive


def _bench_multistage_decimate() -> dict:
    rng = np.random.default_rng(12)
    x = rng.standard_normal(_DEC_N)
    chain = design_decimator(_DEC_FACTOR, atten_db=_DEC_ATTEN_DB,
                             passband=_DEC_PASSBAND)
    # the single-stage strawman protecting the same band: one filter with
    # the final passband and the first fold's stop edge, run at full rate
    pass_edge = _DEC_PASSBAND / (2.0 * _DEC_FACTOR)
    taps, _ = design_lowpass(pass_edge, 1.0 / _DEC_FACTOR - pass_edge,
                             atten_db=_DEC_ATTEN_DB)

    def single_stage():
        return np.convolve(x, taps)[:_DEC_N][::_DEC_FACTOR]

    def multi_stage():
        return chain.fresh().process(x)

    _, t_ref = best_of(single_stage, _REPEATS)
    got, t_str = best_of(multi_stage, _REPEATS)
    assert got.size == -(-_DEC_N // _DEC_FACTOR)
    return {"family": "multistage_decimate", "n": _DEC_N,
            "factor": _DEC_FACTOR,
            "stages": list(chain.report.stage_factors),
            "single_stage_taps": int(taps.size),
            "reference_s": t_ref, "streaming_s": t_str,
            "samples_per_s": _DEC_N / t_str,  # numlint: disable=NL002 -- measured wall time of real work, strictly positive
            "speedup": t_ref / t_str}  # numlint: disable=NL002 -- measured wall time of real work, strictly positive


def _bench_streaming_stft() -> dict:
    rng = np.random.default_rng(13)
    s = rng.standard_normal(_STFT_N)
    window = get_window("hann", _STFT_LG)

    def block():
        return stft(s, window, _STFT_HOP)

    def streaming():
        stream = StreamingSTFT(window, _STFT_HOP)
        for i in range(0, _STFT_N, _CHUNK):
            stream.process(s[i : i + _CHUNK])
        return stream.finalize()

    ref, t_ref = best_of(block, _REPEATS)
    got, t_str = best_of(streaming, _REPEATS)
    assert got.coefficients.shape == ref.coefficients.shape
    assert np.max(np.abs(got.coefficients - ref.coefficients)) < 1e-9
    return {"family": "streaming_stft", "n": _STFT_N, "window": _STFT_LG,
            "hop": _STFT_HOP, "chunk": _CHUNK,
            "reference_s": t_ref, "streaming_s": t_str,
            "samples_per_s": _STFT_N / t_str,  # numlint: disable=NL002 -- measured wall time of real work, strictly positive
            "speedup": t_ref / t_str}  # numlint: disable=NL002 -- measured wall time of real work, strictly positive


#: family -> its bench, in run order
_FAMILIES = {
    "overlap_save_fir": _bench_overlap_save,
    "multistage_decimate": _bench_multistage_decimate,
    "streaming_stft": _bench_streaming_stft,
}


def measure_signal_streaming(keys=None) -> list:
    """Run every streaming family once, or only the families in ``keys``;
    pure so ``tools/bench_gate.py`` can replay it against the committed
    snapshot."""
    return [bench() for family, bench in _FAMILIES.items()
            if keys is None or family in keys]


def test_signal_streaming_bench(request):
    banner("SIGSTREAM", "streaming front-end vs block oracles")
    rows = measure_signal_streaming()
    print(f"{'family':<22} {'reference_s':>12} {'streaming_s':>12} "
          f"{'Msamp/s':>9} {'speedup':>8}")
    for r in rows:
        print(f"{r['family']:<22} {r['reference_s']:>12.5f} "
              f"{r['streaming_s']:>12.5f} {r['samples_per_s'] / 1e6:>9.2f} "
              f"{r['speedup']:>7.2f}x")

    by_family = {r["family"]: r for r in rows}
    # the FFT overlap-save must decisively beat direct convolution at
    # this tap count, and the multi-stage design must beat the
    # single-long-filter strawman — those wins are the whole point
    assert by_family["overlap_save_fir"]["speedup"] > 2.0
    assert by_family["multistage_decimate"]["speedup"] > 1.5
    # streaming STFT pays per-frame overhead but must stay same-order
    assert by_family["streaming_stft"]["speedup"] > 0.2

    maybe_write_bench_json(request, "signal_streaming", rows, extra={
        "chunk": _CHUNK,
        "decimator_gates": {"passband_ripple_db": 0.1,
                            "stopband_atten_db": 60.0},
    })
