"""Command-line front end: export matrices, states, and circuits, run
trajectories, produce spectrum/localization reports, verify, and benchmark.

One binary with subcommands, flags only; every run is reproducible from its
command line (seeded randomness, seed echoed).  Exit codes: 0 success,
1 verification failure, 2 usage error.

The library is the one home of argument ranges: a subcommand passes its
flags straight to qbaker, and main turns any ValueError or OSError it raises
into a usage error that quotes the library's message.  The CLI itself checks
only its own policy: the size caps (`_check_cap`: N=12 for the dense `matrix`
and `spectrum`, N=20 for every other command), which flags go together, and
the state file's layout and norm.  A qbaker self-check failure (say, a kernel
that is not unitary) therefore also exits 2 with its message.  Every JSON
export writes a complex entry as an [re, im] pair of floats (`_pairs`).
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
from .bakermap import DENSE_CAP_N, FAST_CAP_N, baker_composed, emit_circuit, iterate
from .bakermap import apply_baker_fast  # noqa: F401  perfbench/tracing.py patches this name
from .classical import label_shift
from .lattice import DotLabel, _qubit_count
from .qfourier import (
    StateVector,
    antiperiodic_dft,
    displacement_u,
    displacement_v,
    dot_state_product,
    dot_state_transform,
    partial_transform,
    random_product_state,
    random_state,
)
from .verify import DEFAULT_SEED, _check_seed, run_all, time_fast_vs_dense


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], -1).tolist()


def _check_cap(parser, command: str, N: int, cap: int) -> None:
    if _qubit_count(N) > cap:
        parser.error(f"{command} is capped at N={cap}, got N={N}")


def _target_matrix(parser, args) -> np.ndarray:
    _check_cap(parser, args.command, args.N, DENSE_CAP_N)
    N, target = args.N, args.target
    if target in ("G", "B") and args.n is None:
        parser.error(f"--target {target} needs --n")
    if target == "G":
        return partial_transform(N, args.n)
    if target == "B":
        return baker_composed(N, args.n)
    if target == "U":
        return displacement_u(N)
    if target == "V":
        return displacement_v(N)
    return antiperiodic_dft(1 << N)  # F


def _matrix_csv(mat: np.ndarray) -> str:
    lines = ["row,col,re,im"]
    for r in range(mat.shape[0]):
        for c in range(mat.shape[1]):
            z = mat[r, c]
            lines.append(f"{r},{c},{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def cmd_matrix(args, parser) -> int:
    mat = _target_matrix(parser, args)
    text = _matrix_csv(mat) if args.format == "csv" else json.dumps(_pairs(mat)) + "\n"
    _write(text, args.out)
    return 0


def cmd_state(args, parser) -> int:
    label = DotLabel.parse(args.label)
    _check_cap(parser, "state", label.N, FAST_CAP_N)
    state = dot_state_product(label) if args.route == "product" else dot_state_transform(label)
    if args.format == "csv":
        lines = ["index,re,im"]
        for j, z in enumerate(state.amps):
            lines.append(f"{j},{_fmt(z.real)},{_fmt(z.imag)}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"N": state.N, "amps": _pairs(state.amps)}) + "\n"
    _write(text, args.out)
    return 0


def _read_state_file(parser, path: str) -> StateVector:
    rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if rows and rows[0].lower().startswith("index"):
        rows = rows[1:]
    amps_by_index = {}
    for row in rows:
        parts = row.split(",")
        if len(parts) != 3:
            parser.error(f"state file rows must be 'index,re,im', got {row!r}")
        index = int(parts[0])
        if index in amps_by_index:
            parser.error(f"state file lists index {index} more than once")
        amps_by_index[index] = float(parts[1]) + 1j * float(parts[2])
    size = len(amps_by_index)
    if size < 2 or size & (size - 1) or set(amps_by_index) != set(range(size)):
        parser.error("state file must list every index 0..2^N-1 exactly once")
    amps = np.array([amps_by_index[j] for j in range(size)])
    if not np.isfinite(amps).all():
        parser.error("state file has non-finite amplitudes")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-8:
        parser.error(f"input state is not normalized: |norm-1| = {abs(norm - 1.0):.3e}")
    return StateVector(N=size.bit_length() - 1, amps=amps)


def _evolve_input(args, parser, label: DotLabel | None) -> StateVector:
    """evolve's initial state.  A label or --N passed the cap before this
    runs; a state file's N is known only once it is read."""
    if label is not None:
        return dot_state_transform(label)
    if args.random_product:
        return random_product_state(args.N, np.random.default_rng(args.seed))
    state = _read_state_file(parser, args.state_file)
    if args.N is not None and args.N != state.N:
        parser.error(f"--N {args.N} contradicts state file with N={state.N}")
    _check_cap(parser, "evolve", state.N, FAST_CAP_N)
    return state


def cmd_evolve(args, parser) -> int:
    given = [args.label is not None, args.state_file is not None, args.random_product]
    if sum(given) != 1:
        parser.error("give exactly one of --label, --state-file, --random-product")
    label = DotLabel.parse(args.label) if args.label is not None else None
    if label is not None and args.N is not None and args.N != label.N:
        parser.error(f"--N {args.N} contradicts label with N={label.N}")
    if args.random_product:
        if args.N is None:
            parser.error("--random-product needs --N")
        _check_seed(args.seed)
    N = label.N if label is not None else args.N
    if N is not None:
        _check_cap(parser, "evolve", N, FAST_CAP_N)
    if args.n is None and label is None:
        parser.error("--n is needed unless --label supplies the map index")
    map_index = args.n if args.n is not None else label.n

    lines = [f"# seed={args.seed}"] if args.random_product else []
    lines.append("step,norm,support_size,max_cut_entropy,label")

    def row(step: int, s: StateVector) -> None:
        nonlocal label  # the dot label of s, None once s has left the dot basis
        if step > 0:
            matched = None
            if label is not None and label.n == map_index:
                candidate = label_shift(label)
                overlap = np.vdot(dot_state_transform(candidate).amps, s.amps)
                if overlap.real >= 1.0 - 1e-10:
                    matched = candidate
            label = matched
        support = position_support(s, args.tol).size
        entropy = max_contiguous_cut_entropy(s) if s.N >= 2 else 0.0
        text = label.text() if label is not None else ""
        lines.append(f"{step},{_fmt(s.norm())},{support},{_fmt(entropy)},{text}")

    # no local keeps the initial state, so iterate can drop it after step 1
    iterate(_evolve_input(args, parser, label), map_index, args.steps, observe=row)
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_spectrum(args, parser) -> int:
    report = eigenphases(_target_matrix(parser, args))
    lines = ["index,phase,spacing"]
    for i, (phase, gap) in enumerate(zip(report.phases, report.spacings)):
        lines.append(f"{i},{_fmt(phase)},{_fmt(gap)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_localize(args, parser) -> int:
    label = DotLabel.parse(args.label)
    _check_cap(parser, "localize", label.N, FAST_CAP_N)
    report = check_strict_localization(label)
    payload = {
        "label": label.text(),
        "N": label.N,
        "n": label.n,
        "support": list(report.support),
        "uniform_modulus_dev": report.uniform_modulus_dev,
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


def cmd_circuit(args, parser) -> int:
    _check_cap(parser, "circuit", args.N, FAST_CAP_N)
    gl = emit_circuit(args.N, args.n)
    payload = {"N": gl.N, "gates": [_gate_record(g) for g in gl.gates]}
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args, parser) -> int:
    results = run_all(max_n=args.max_N, seed=args.seed, perturb=args.perturb)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.skipped and not r.passed]
    if args.report:
        payload = {
            "seed": args.seed,
            "max_N": args.max_N,
            "perturb": args.perturb,
            "all_passed": not failed,
            "checks": [r.to_dict() for r in results],
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    skipped = sum(r.skipped for r in results)
    summary = f"{len(results) - len(failed) - skipped}/{len(results) - skipped} checks passed"
    if skipped:
        summary += f" ({skipped} skipped)"
    print(summary)
    return 1 if failed else 0


def cmd_bench(args, parser) -> int:
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    for N in args.N:
        _check_cap(parser, "bench", N, FAST_CAP_N)
    rng = np.random.default_rng(_check_seed(args.seed))
    lines = [f"# seed={args.seed}", "N,n,dense_ms,fast_ms,speedup,max_abs_err"]
    for N in args.N:
        n = min(args.n, N)
        fast_t, dense_t, err = time_fast_vs_dense(random_state(N, rng), n, args.reps)
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
    p.add_argument("--route", choices=["transform", "product"], default="transform")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    add_out(p)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("evolve", help="iterate a map and log per-step diagnostics")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="map index (default: label's n)")
    p.add_argument("--label", default=None, help="dot label giving the initial state")
    p.add_argument("--state-file", default=None, help="CSV amplitude file (index,re,im)")
    p.add_argument("--random-product", action="store_true", help="seeded random product state")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
