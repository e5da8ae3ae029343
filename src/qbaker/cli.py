"""Command-line front end: export matrices, states, and circuits, run
trajectories, produce spectrum/localization reports, verify, and benchmark.

One binary with subcommands, flags only; every run is reproducible from its
command line (seeded randomness, seed echoed).  Exit codes: 0 success,
1 verification failure, 2 usage error.

The library is the one home of argument ranges: a subcommand passes its
flags straight to qbaker.  The CLI itself checks only its own policy: the
size caps (`_check_cap`: N=12 for the dense `matrix` and `spectrum`, N=20
for every other command), which flags go together, and the state file's
layout; `statevector` hands its amplitudes to the one check of a state, the
`StateVector` constructor.  Every check, an unrecognized argument and a
failed self-check raise ValueError (OSError for a file); main reports each as
argparse reports a bad flag, under `qbaker <command>: error:`, and exits 2.
Every JSON export writes a complex entry as an [re, im] pair of floats
(`_pairs`).  `evolve` takes N from one source (label, state file or --N),
checks the step count, map index and a random seed before it builds a
label's or --N's state, then steps `apply_baker_fast` in a plain loop, one
CSV row per state.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    check_strict_localization,
    eigenphases,
    max_contiguous_cut_entropy,
    position_support,
)
from .bakermap import DENSE_CAP_N, FAST_CAP_N, _check_map_index, apply_baker_fast
from .bakermap import baker_composed, emit_circuit
from .classical import label_shift
from .lattice import DotLabel, _integer
from .qfourier import (
    StateVector,
    antiperiodic_dft,
    displacement_u,
    displacement_v,
    dot_state_transform,
    partial_transform,
    random_product_state,
    statevector,
)
from .verify import DEFAULT_SEED, _json_number, run_all, time_fast_vs_dense


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], -1).tolist()


def _check_cap(N: int, cap: int) -> None:
    if _integer(N) > cap:
        raise ValueError(f"capped at N={cap}, got N={N}")


def _target_matrix(args) -> np.ndarray:
    _check_cap(args.N, DENSE_CAP_N)
    N, target = args.N, args.target
    if target in ("G", "B") and args.n is None:
        raise ValueError(f"--target {target} needs --n")
    if target == "G":
        return partial_transform(N, args.n)
    if target == "B":
        return baker_composed(N, args.n)
    if target == "U":
        return displacement_u(N)
    if target == "V":
        return displacement_v(N)
    return antiperiodic_dft(1 << N)  # F


def _csv(header: str, arr: np.ndarray) -> str:
    """The header, then one row per entry of arr in C order: its indices, re, im."""
    lines = [header]
    for index, z in zip(np.ndindex(arr.shape), arr.ravel().tolist()):
        lines.append(",".join(map(str, index)) + f",{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def cmd_matrix(args) -> int:
    mat = _target_matrix(args)
    text = _csv("row,col,re,im", mat) if args.format == "csv" else json.dumps(_pairs(mat)) + "\n"
    _write(text, args.out)
    return 0


def cmd_state(args) -> int:
    label = DotLabel.parse(args.label)
    _check_cap(label.N, FAST_CAP_N)
    state = dot_state_transform(label)
    if args.format == "csv":
        text = _csv("index,re,im", state.amps)
    else:
        text = json.dumps({"N": state.N, "amps": _pairs(state.amps)}) + "\n"
    _write(text, args.out)
    return 0


def _read_state_file(path: str) -> StateVector:
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if rows and rows[0].lower().startswith("index"):
        rows = rows[1:]
    amps_by_index = {}
    for row in rows:
        try:
            index, re, im = row.split(",")
            index, amp = int(index), float(re) + 1j * float(im)
        except ValueError:
            raise ValueError(f"state file rows must be 'index,re,im', got {row!r}") from None
        if index in amps_by_index:
            raise ValueError(f"state file lists index {index} more than once")
        amps_by_index[index] = amp
    size = len(amps_by_index)
    if set(amps_by_index) != set(range(size)):
        raise ValueError("state file must list every index 0..2^N-1 exactly once")
    return statevector([amps_by_index[j] for j in range(size)])


def cmd_evolve(args) -> int:
    label = state = None
    if args.label is not None:
        label = DotLabel.parse(args.label)
        N, source = label.N, "label"
    elif args.random_product:
        if args.N is None:
            raise ValueError("--random-product needs --N")
        N, source = args.N, "--N"
        _integer(args.seed, 0, noun="seed")
    else:
        state = _read_state_file(args.state_file)
        N, source = state.N, "state file"
    if args.N is not None and args.N != N:
        raise ValueError(f"--N {args.N} contradicts {source} with N={N}")
    if args.n is None and label is None:
        raise ValueError("--n is needed unless --label supplies the map index")
    map_index = args.n if args.n is not None else label.n
    steps = _integer(args.steps, 0, noun="step count")
    _check_cap(N, FAST_CAP_N)
    _check_map_index(N, map_index)
    if label is not None:
        state = dot_state_transform(label)
    elif state is None:
        state = random_product_state(N, np.random.default_rng(args.seed))

    lines = [f"# seed={args.seed}"] if args.random_product else []
    lines.append("step,norm,support_size,max_cut_entropy,label")
    for step in range(steps + 1):
        if step > 0:
            # rebinding drops the previous state; label stays the dot label
            # of state, None once state has left the dot basis
            state = apply_baker_fast(state, map_index)
            matched = None
            if label is not None and label.n == map_index:
                candidate = label_shift(label)
                overlap = np.vdot(dot_state_transform(candidate).amps, state.amps)
                if overlap.real >= 1.0 - 1e-10:
                    matched = candidate
            label = matched
        support = position_support(state, args.tol).size
        entropy = max_contiguous_cut_entropy(state) if state.N >= 2 else 0.0
        text = label.text() if label is not None else ""
        lines.append(f"{step},{_fmt(state.norm())},{support},{_fmt(entropy)},{text}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_spectrum(args) -> int:
    report = eigenphases(_target_matrix(args))
    lines = ["index,phase,spacing"]
    for i, (phase, gap) in enumerate(zip(report.phases, report.spacings)):
        lines.append(f"{i},{_fmt(phase)},{_fmt(gap)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_localize(args) -> int:
    label = DotLabel.parse(args.label)
    _check_cap(label.N, FAST_CAP_N)
    report = check_strict_localization(label)
    payload = {
        "label": label.text(),
        "N": label.N,
        "n": label.n,
        "support": list(report.support),
        "uniform_modulus_dev": report.uniform_modulus_dev,
        "off_window_max": report.off_window_max,
        "window_mass": report.window_mass,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _gate_record(gate) -> dict:
    record: dict = {"kind": gate.kind, "targets": list(gate.targets)}
    if gate.matrix is not None:
        record["matrix"] = _pairs(gate.matrix)
    if gate.angle is not None:
        record["angle"] = gate.angle
    return record


def cmd_circuit(args) -> int:
    _check_cap(args.N, FAST_CAP_N)
    gl = emit_circuit(args.N, args.n)
    payload = {"N": gl.N, "gates": [_gate_record(g) for g in gl.gates]}
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    results = run_all(max_n=args.max_N, seed=args.seed, perturb=args.perturb)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.skipped and not r.passed]
    if args.report:
        payload = {
            "seed": args.seed,
            "max_N": args.max_N,
            "perturb": _json_number(args.perturb),
            "all_passed": not failed,
            "checks": [r.to_dict() for r in results],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        Path(args.report).write_text(text, encoding="utf-8")
    skipped = sum(r.skipped for r in results)
    summary = f"{len(results) - len(failed) - skipped}/{len(results) - skipped} checks passed"
    if skipped:
        summary += f" ({skipped} skipped)"
    print(summary)
    return 1 if failed else 0


def cmd_bench(args) -> int:
    for N in args.N:
        _check_cap(N, FAST_CAP_N)
    rng = np.random.default_rng(_integer(args.seed, 0, noun="seed"))
    lines = [f"# seed={args.seed}", "N,n,dense_ms,fast_ms,speedup,max_abs_err"]
    for N in args.N:
        n = min(args.n, N)
        fast_t, dense_t, err = time_fast_vs_dense(N, n, rng, args.reps)
        if dense_t is None:
            lines.append(f"{N},{n},,{_fmt(fast_t * 1e3)},,")
        else:
            lines.append(
                f"{N},{n},{_fmt(dense_t * 1e3)},{_fmt(fast_t * 1e3)},"
                f"{_fmt(dense_t / fast_t)},{_fmt(err)}"
            )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbaker",
        description="Quantum baker's maps as shifts on a finite qubit string.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("matrix", help="export a dense operator matrix")
    p.add_argument("--target", required=True, choices=["G", "B", "U", "V", "F"])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    add_out(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("state", help="export the amplitudes of a dot-basis state")
    p.add_argument("--label", required=True, help="dot label, e.g. 01.10")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    add_out(p)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("evolve", help="iterate a map and log per-step diagnostics")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="map index (default: label's n)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--label", default=None, help="dot label giving the initial state")
    source.add_argument("--state-file", default=None, help="CSV amplitude file (index,re,im)")
    source.add_argument("--random-product", action="store_true", help="seeded random product state")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=1e-12, help="support threshold")
    add_out(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("spectrum", help="export sorted eigenphases and spacings")
    p.add_argument("--target", required=True, choices=["G", "B", "U", "V", "F"])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    add_out(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("localize", help="localization report for a dot-basis state")
    p.add_argument("--label", required=True, help="dot label, e.g. 0.10")
    add_out(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("circuit", help="lower a map to a gate list (JSON)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--max-N", type=int, default=None, dest="max_N")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inject this much noise into one G_n entry (self-test)")
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time fast apply against the dense matvec")
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p)
    p.set_defaults(func=cmd_bench)

    for p in sub.choices.values():
        p.set_defaults(error=p.error)  # main reports under the command's own prefix
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        args.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
