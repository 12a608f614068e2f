"""Command-line front end.

Every subcommand prints a single JSON document (default) whose "config" field
echoes the fully resolved invocation, or CSV/pretty text with the same
config in a comment header.  Exit codes: 0 success, 1 domain/bound/usage
errors (with a structured error object), 2 mathematical findings (a FAIL
verdict or a failed verification check) so pipelines can tell discoveries
from crashes.  Output is byte-deterministic given the arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import chains as chains_mod
from . import cumulants as cumulants_mod
from . import hopf as hopf_mod
from . import partitions as partitions_mod
from . import trees as trees_mod
from .partitions import BoundExceededError
from .transforms import (
    FidReport,
    G_eval,
    cf_eval,
    decomposition_residual,
    density_eval,
    f_trajectory,
    fid_test,
    formal_phi_ode_check,
    riccati_residual,
    voiculescu_phi,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2


def _frac(text: str) -> Fraction:
    return Fraction(text)


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _parse_seq(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",") if part.strip()]


def _parse_grid(spec: str) -> list[complex]:
    """'x0:x1:nx,y0:y1:ny' -> row-major complex grid points."""
    try:
        xs_spec, ys_spec = spec.split(",")
        x0, x1, nx = xs_spec.split(":")
        y0, y1, ny = ys_spec.split(":")
        nx, ny = int(nx), int(ny)
        x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    except ValueError as exc:
        raise ValueError(f"malformed grid spec {spec!r}; expected x0:x1:nx,y0:y1:ny") from exc
    xs = [x0 + (x1 - x0) * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / max(ny - 1, 1) for j in range(ny)]
    return [complex(x, y) for y in ys for x in xs]


def _parse_range(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"malformed range spec {spec!r}; expected lo:hi:step") from exc
    if step <= 0:
        raise ValueError("range step must be positive")
    out = []
    value = lo
    while value <= hi + 1e-12:
        out.append(round(value, 12))
        value += step
    return out


def _emit(config: dict, result, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        print(json.dumps({"config": config, "result": result}, sort_keys=True))
    elif fmt == "csv":
        print(f"# config: {json.dumps(config, sort_keys=True)}")
        if csv_header:
            print(",".join(csv_header))
        for row in csv_rows or []:
            print(",".join(str(v) for v in row))
    else:  # pretty
        print(f"# {json.dumps(config, sort_keys=True)}")
        _pretty(result)


def _pretty(result, indent: str = "") -> None:
    if isinstance(result, dict):
        for key in result:
            value = result[key]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _pretty(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(result, list):
        for value in result:
            _pretty(value, indent)
    else:
        print(f"{indent}{result}")


# ------------------------------------------------------------- subcommands


def _cmd_sequence(args) -> int:
    name = args.name
    if name == "a000699":
        fc = cumulants_mod.gaussian_free_cumulants(args.max)
        orders = list(range(2, args.max + 1, 2))
        values = [fc[k] for k in orders]
    elif name == "shifted":
        s = cumulants_mod.gaussian_shifted_sequence(args.max)
        orders = list(range(0, args.max + 1, 2))
        values = [s[k] for k in orders]
    else:  # catalan
        import math

        orders = list(range(0, args.max + 1))
        values = [math.comb(2 * n, n) // (n + 1) for n in orders]
    config = {"command": "sequence", "name": name, "max": args.max, "format": args.format}
    if args.format == "pretty":
        print(f"# {json.dumps(config, sort_keys=True)}")
        print(",".join(str(v) for v in values))
        return EXIT_OK
    _emit(
        config,
        {"orders": orders, "values": [str(v) for v in values]},
        args.format,
        csv_rows=list(zip(orders, values)),
        csv_header=("order", "value"),
    )
    return EXIT_OK


def _cmd_cumulants(args) -> int:
    seq = _parse_seq(args.seq)
    convert = {
        ("classical", "from-moments"): cumulants_mod.classical_from_moments,
        ("classical", "to-moments"): cumulants_mod.moments_from_classical,
        ("free", "from-moments"): cumulants_mod.free_from_moments,
        ("free", "to-moments"): cumulants_mod.moments_from_free,
        ("boolean", "from-moments"): cumulants_mod.boolean_from_moments,
        ("boolean", "to-moments"): cumulants_mod.moments_from_boolean,
    }[(args.kind, args.direction)]
    out = convert(seq)
    config = {
        "command": "cumulants",
        "kind": args.kind,
        "direction": args.direction,
        "seq": [_frac_str(v) for v in seq],
        "format": args.format,
    }
    rows = [(n, _frac_str(v), float(v)) for n, v in enumerate(out)]
    _emit(
        config,
        {"values": [_frac_str(v) for v in out], "decimal": [float(v) for v in out]},
        args.format,
        csv_rows=rows,
        csv_header=("n", "value", "decimal"),
    )
    return EXIT_OK


def _chain_matrix(model: str, n: int):
    if model == "nt":
        return chains_mod.nt_transition_matrix(n)
    return chains_mod.mtr_transition_matrix(n)


def _cmd_chains(args) -> int:
    config = {
        "command": f"chains {args.action}",
        "model": args.model,
        "n": args.n,
        "format": args.format,
    }
    matrix = _chain_matrix(args.model, args.n)
    if args.action == "stationary":
        pi = chains_mod.stationary(matrix)
        result = {
            "states": matrix.states,
            "weights": {s: _frac_str(w) for s, w in pi.weights.items()},
        }
        rows = [(s, _frac_str(pi.weights[s]), float(pi.weights[s])) for s in matrix.states]
        _emit(config, result, args.format, rows, ("state", "weight", "decimal"))
    elif args.action == "matrix":
        edges = []
        for i, state in enumerate(matrix.states):
            for j, weight in enumerate(matrix.rows[i]):
                if weight:
                    edges.append(
                        {"from": state, "to": matrix.states[j], "weight": _frac_str(weight)}
                    )
        result = {"states": matrix.states, "edges": edges}
        rows = [(e["from"], e["to"], e["weight"]) for e in edges]
        _emit(config, result, args.format, rows, ("from", "to", "weight"))
    elif args.action == "return-time":
        summary = chains_mod.return_time_sum(args.n, args.model)
        result = {
            "total": summary.total,
            "states": summary.state_count,
            "expected_return": _frac_str(summary.expected_return),
        }
        _emit(config, result, args.format, [tuple(result.values())], tuple(result))
    else:  # simulate
        config.update({"steps": args.steps, "seed": args.seed})
        empirical = chains_mod.simulate(matrix, args.steps, args.seed)
        exact = chains_mod.stationary(matrix)
        tv = chains_mod.tv_distance(empirical, exact)
        result = {
            "frequencies": {s: _frac_str(w) for s, w in sorted(empirical.weights.items())},
            "tv_distance_to_stationary": float(tv),
            "generator": "random.Random (Mersenne Twister)",
        }
        _emit(config, result, args.format)
    return EXIT_OK


def _cmd_dyck(args) -> int:
    config = {"command": f"dyck {args.action}", "format": args.format}
    if args.action == "mu":
        config["word"] = args.word
        comb = trees_mod.mu_operator(args.word)
        result = {word: comb[word] for word in sorted(comb)}
        _emit(config, result, args.format, sorted(result.items()), ("word", "coefficient"))
    elif args.action == "factorial":
        config["word"] = args.word
        _emit(config, {"factorial": trees_mod.dyck_factorial(args.word)}, args.format)
    elif args.action == "words":
        config["n"] = args.n
        words = trees_mod.enumerate_dyck_words(args.n)
        _emit(config, words, args.format, [(w,) for w in words], ("word",))
    else:  # matrix
        config["n"] = args.n
        words, adjacency = trees_mod.nt_adjacency(args.n)
        result = {
            "words": words,
            "adjacency": adjacency,
            "row_divisor": args.n + 1,
        }
        rows = [
            (words[i], words[j], adjacency[i][j])
            for i in range(len(words))
            for j in range(len(words))
            if adjacency[i][j]
        ]
        _emit(config, result, args.format, rows, ("from", "to", "count"))
    return EXIT_OK


def _cmd_hopf(args) -> int:
    config = {"command": f"hopf {args.action}", "format": args.format}

    def tree_arg():
        return hopf_mod.tree_from_nested(json.loads(args.tree))

    def comb_json(comb):
        return {
            json.dumps(hopf_mod.tree_to_nested(t)): _frac_str(coef)
            for t, coef in sorted(
                comb.items(), key=lambda kv: json.dumps(hopf_mod.tree_to_nested(kv[0]))
            )
        }

    def tensor_json(comb):
        return {
            json.dumps(
                [hopf_mod.tree_to_nested(a), hopf_mod.tree_to_nested(b)]
            ): _frac_str(coef)
            for (a, b), coef in sorted(
                comb.items(),
                key=lambda kv: json.dumps(
                    [hopf_mod.tree_to_nested(kv[0][0]), hopf_mod.tree_to_nested(kv[0][1])]
                ),
            )
        }

    if args.action == "product":
        config["left"], config["right"] = args.left, args.right
        s = hopf_mod.tree_from_nested(json.loads(args.left))
        t = hopf_mod.tree_from_nested(json.loads(args.right))
        _emit(config, comb_json(hopf_mod.lr_product(s, t)), args.format)
    elif args.action == "coproduct":
        config["tree"] = args.tree
        _emit(config, tensor_json(hopf_mod.lr_coproduct(tree_arg())), args.format)
    elif args.action == "bf-coproduct":
        config["tree"] = args.tree
        _emit(config, tensor_json(hopf_mod.bf_coproduct(tree_arg())), args.format)
    elif args.action == "antipode":
        config["tree"] = args.tree
        _emit(config, comb_json(hopf_mod.antipode(tree_arg())), args.format)
    elif args.action == "hilbert":
        config["max"] = args.max
        dims = [hopf_mod.hilbert_dimension(n) for n in range(args.max + 1)]
        _emit(config, dims, args.format, list(enumerate(dims)), ("n", "dimension"))
    else:  # laws
        config["max_size"] = args.max_size
        results = {
            "coassociativity": bool(hopf_mod.coassociativity_check(args.max_size)),
            "counit": bool(hopf_mod.counit_check(args.max_size)),
            "antipode": bool(hopf_mod.antipode_check(args.max_size)),
        }
        _emit(config, results, args.format)
        if not all(results.values()):
            return EXIT_FINDING
    return EXIT_OK


def _cmd_fid(args) -> int:
    report: FidReport = fid_test(_frac(args.c), args.order)
    config = {
        "command": "fid",
        "c": args.c,
        "order": args.order,
        "format": args.format,
    }
    _emit(config, report.to_json(), args.format)
    return EXIT_FINDING if report.verdict == "FAIL" else EXIT_OK


def _cmd_transform(args) -> int:
    c = _frac(args.c)
    points = _parse_grid(args.grid)
    config = {
        "command": "transform",
        "c": args.c,
        "grid": args.grid,
        "op": args.op,
        "dps": args.dps,
        "format": args.format,
    }
    rows = []
    finding = False
    if args.op == "g":
        for z in points:
            g = complex(G_eval(c, z, dps=args.dps))
            rows.append((z.real, z.imag, g.real, g.imag))
        header = ("re_z", "im_z", "re_g", "im_g")
    elif args.op == "cf":
        for z in points:
            g = complex(cf_eval(c, z, tol=args.tol, dps=args.dps))
            rows.append((z.real, z.imag, g.real, g.imag))
        header = ("re_z", "im_z", "re_g", "im_g")
    elif args.op == "riccati":
        for z in points:
            res = riccati_residual(c, z, step=args.step, dps=args.dps)
            rows.append((z.real, z.imag, res.g_form, res.f_form))
        header = ("re_z", "im_z", "g_residual", "f_residual")
    elif args.op == "decomposition":
        for z in points:
            rows.append((z.real, z.imag, decomposition_residual(c, z, dps=args.dps)))
        header = ("re_z", "im_z", "residual")
    else:  # phi
        for z in points:
            phi = complex(voiculescu_phi(c, z, tol=args.tol, dps=args.dps))
            rows.append((z.real, z.imag, phi.real, phi.imag))
            if c <= 0 and phi.imag > 1e-8:
                finding = True
        header = ("re_z", "im_z", "re_phi", "im_phi")
    result = [dict(zip(header, row)) for row in rows]
    _emit(config, result, args.format, rows, header)
    return EXIT_FINDING if finding else EXIT_OK


def _cmd_trajectory(args) -> int:
    report = f_trajectory(_frac(args.c), r_lo=args.r_lo, r_hi=args.r_hi)
    config = {
        "command": "trajectory",
        "c": args.c,
        "r_lo": args.r_lo,
        "r_hi": args.r_hi,
        "format": args.format,
    }
    result = {
        "q0": report.q0,
        "s_crit": report.s_crit,
        "f_at_scrit": report.f_at_scrit,
        "f_above_diagonal": report.f_above_diagonal,
        "fprime_below_one": report.fprime_below_one,
        "unique_zero": report.unique_zero,
        "unique_critical_point": report.unique_critical_point,
        "scrit_below_bound": report.scrit_below_bound,
        "failures": report.failures,
    }
    _emit(config, result, args.format)
    return EXIT_OK if report.all_ok else EXIT_FINDING


def _cmd_density(args) -> int:
    c = _frac(args.c)
    us = _parse_range(args.range)
    config = {
        "command": "density",
        "c": args.c,
        "range": args.range,
        "eps": args.eps,
        "richardson": args.richardson,
        "format": args.format,
    }
    rows = [(u, density_eval(c, u, eps=args.eps, richardson=args.richardson)) for u in us]
    result = [{"u": u, "density": d} for u, d in rows]
    _emit(config, result, args.format, rows, ("u", "density"))
    return EXIT_OK


# ------------------------------------------------------------------- checks


def _desk_checks(level: str):
    """Curated invariant suite; each entry returns True on success."""
    from fractions import Fraction as F

    deep = level == "full"

    def seq_triple_agreement():
        fc = cumulants_mod.gaussian_free_cumulants(12)
        for two_n in range(2, 13, 2):
            if partitions_mod.count_connected_pairings(two_n) != fc[two_n]:
                return False
        s = cumulants_mod.gaussian_shifted_sequence(12)
        return all(trees_mod.s_via_trees(n) == s[2 * n] for n in range(0, 7))

    def pairing_counts():
        import math

        top = 12 if deep else 10
        return all(
            len(partitions_mod.enumerate_pairings(n)) == math.prod(range(n - 1, 0, -2))
            for n in range(2, top + 1, 2)
        )

    def moebius_sums():
        ok = True
        for n in range(2, 6):
            for kind in partitions_mod.LatticeKind:
                lattice = partitions_mod.enumerate_partitions(n, kind)
                top = partitions_mod.top_partition(n)
                ok &= (
                    sum(partitions_mod.moebius(kind, s, top) for s in lattice) == 0
                )
        return ok

    def cumulant_oracles():
        m = [F(1), F(1, 2), F(1), F(2), F(9, 2), F(12), F(31)]
        if deep:
            m = m + [F(85), F(248)]
        for flavour, series in (
            ("classical", cumulants_mod.classical_from_moments),
            ("free", cumulants_mod.free_from_moments),
            ("boolean", cumulants_mod.boolean_from_moments),
        ):
            if series(m) != cumulants_mod.cumulants_via_lattice(m, flavour):
                return False
        return True

    def gbm_identity():
        fc = [F(x) for x in cumulants_mod.gaussian_free_cumulants(10)]
        for s in (F(1, 2), F(3)):
            scaled = [s * x for x in fc]
            m = cumulants_mod.moments_from_free(scaled)
            for two_n in range(2, 11, 2):
                spec = cumulants_mod.WeightSpec(cumulants_mod.WeightKind.CC_POWER, s)
                if cumulants_mod.weighted_pairing_moment(two_n, spec) != m[two_n]:
                    return False
        return True

    def chain_stationary():
        top = 5 if deep else 4
        for n in range(1, top + 1):
            for model in ("nt", "mtr"):
                pi = chains_mod.stationary(_chain_matrix(model, n))
                for word, weight in pi.weights.items():
                    if weight != F(1, trees_mod.dyck_factorial(word)):
                        return False
        return True

    def hopf_laws():
        size = 4 if deep else 3
        return (
            bool(hopf_mod.coassociativity_check(3))
            and bool(hopf_mod.counit_check(size))
            and bool(hopf_mod.antipode_check(size))
            and [hopf_mod.hilbert_dimension(n) for n in range(4)] == [1, 1, 4, 27]
        )

    def dyck_mu():
        ok = trees_mod.mu_operator("UUDUDD") == {"UUDUDD": 1, "UUDDUD": 2, "UDUDUD": 1}
        for n in range(0, 6):
            for w in trees_mod.enumerate_dyck_words(n):
                ok &= sum(trees_mod.mu_operator(w).values()) == n + 1
        return ok

    def fid_gaussian():
        order = 120 if deep else 60
        return fid_test(F(0), order).verdict == "PASS"

    def formal_ode():
        return bool(formal_phi_ode_check(12))

    def riccati():
        for c in (F(-1, 2), F(0), F(1, 2)):
            for z in (1 + 1j, 2j):
                res = riccati_residual(c, z)
                if res.g_form > 1e-6 or res.f_form > 1e-6:
                    return False
        return True

    def gaussian_density():
        import math

        for u in (0.0, 1.0, 2.0):
            expected = math.exp(-u * u / 2) / math.sqrt(2 * math.pi)
            if abs(density_eval(F(0), u, eps=1e-6) - expected) > 1e-4:
                return False
        return True

    return [
        ("partitions: pairing count is (n-1)!!", pairing_counts),
        ("partitions: Moebius sums vanish below top", moebius_sums),
        ("cumulants: series routes match lattice oracles", cumulant_oracles),
        ("cumulants: Gaussian power moments match weighted pairings", gbm_identity),
        ("trees: triple agreement of the shifted sequence", seq_triple_agreement),
        ("trees: mu operator worked example and row sums", dyck_mu),
        ("chains: stationary laws are reciprocal factorials", chain_stationary),
        ("hopf: coalgebra laws and Hilbert dimensions", hopf_laws),
        ("transforms: Gaussian shifted sequence passes positivity", fid_gaussian),
        ("transforms: formal inverse-series identity", formal_ode),
        ("transforms: Riccati residuals below 1e-6", riccati),
        ("transforms: Gaussian density values", gaussian_density),
    ]


def _cmd_check(args) -> int:
    checks = _desk_checks(args.level)
    if args.target != "all":
        checks = [(name, fn) for name, fn in checks if name.startswith(args.target)]
        if not checks:
            raise ValueError(f"no checks for target {args.target!r}")
    config = {
        "command": "check",
        "target": args.target,
        "level": args.level,
        "format": args.format,
    }
    results = {}
    all_ok = True
    for name, fn in checks:
        ok = bool(fn())
        results[name] = "ok" if ok else "FAIL"
        all_ok &= ok
    _emit(config, results, args.format, sorted(results.items()), ("check", "status"))
    return EXIT_OK if all_ok else EXIT_FINDING


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeprob",
        description=(
            "Exact free-cumulant combinatorics, tree/Dyck Markov chains, "
            "Loday-Ronco Hopf algebras, and free-infinite-divisibility tests "
            "for the Askey-Wimp-Kerov measures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "csv", "pretty"), default="json", help="output format"
        )

    p = sub.add_parser("sequence", help="print a named integer sequence")
    p.add_argument("name", choices=("a000699", "shifted", "catalan"))
    p.add_argument("--max", type=int, default=12, help="maximum order")
    add_format(p)
    p.set_defaults(fn=_cmd_sequence)

    p = sub.add_parser("cumulants", help="moment/cumulant conversions")
    p.add_argument("--kind", choices=("classical", "free", "boolean"), required=True)
    p.add_argument("--direction", choices=("from-moments", "to-moments"), required=True)
    p.add_argument("--seq", required=True, help="comma-separated rationals, e.g. 1,0,1,0,3")
    add_format(p)
    p.set_defaults(fn=_cmd_cumulants)

    p = sub.add_parser("chains", help="move-to-root and Naimi-Trehel chains")
    p.add_argument("action", choices=("stationary", "matrix", "return-time", "simulate"))
    p.add_argument("--model", choices=("nt", "mtr"), default="nt")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(fn=_cmd_chains)

    p = sub.add_parser("dyck", help="Dyck words and the mu operator")
    p.add_argument("action", choices=("mu", "factorial", "words", "matrix"))
    p.add_argument("--word", default="")
    p.add_argument("--n", type=int, default=3)
    add_format(p)
    p.set_defaults(fn=_cmd_dyck)

    p = sub.add_parser("hopf", help="ordered-tree Hopf algebra operations")
    p.add_argument(
        "action",
        choices=("product", "coproduct", "bf-coproduct", "antipode", "hilbert", "laws"),
    )
    p.add_argument("--tree", help="nested-list tree, e.g. [3,[1],[2]]")
    p.add_argument("--left", help="nested-list tree (product)")
    p.add_argument("--right", help="nested-list tree (product)")
    p.add_argument("--max", type=int, default=4, help="maximum degree (hilbert)")
    p.add_argument("--max-size", type=int, default=3, help="maximum tree size (laws)")
    add_format(p)
    p.set_defaults(fn=_cmd_hopf)

    p = sub.add_parser("fid", help="free-infinite-divisibility Hankel test")
    p.add_argument("--c", required=True, help="rational parameter, e.g. 9/10")
    p.add_argument("--order", type=int, default=200, help="highest shifted-sequence index")
    add_format(p)
    p.set_defaults(fn=_cmd_fid)

    p = sub.add_parser("transform", help="evaluate transforms / residuals on a grid")
    p.add_argument("--c", required=True)
    p.add_argument("--grid", default="-2:2:5,0.6:3:5", help="x0:x1:nx,y0:y1:ny")
    p.add_argument("--op", choices=("g", "cf", "riccati", "decomposition", "phi"), default="g")
    p.add_argument("--step", type=float, default=1e-5, help="difference step (riccati)")
    p.add_argument("--tol", type=float, default=1e-11, help="tolerance (cf and phi ops)")
    p.add_argument("--dps", type=int, default=None, help="extended precision digits")
    add_format(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("trajectory", help="imaginary-axis flow verifier (-1 < c < 0)")
    p.add_argument("--c", required=True)
    p.add_argument("--r-lo", type=float, default=-16.0)
    p.add_argument("--r-hi", type=float, default=12.0)
    add_format(p)
    p.set_defaults(fn=_cmd_trajectory)

    p = sub.add_parser("density", help="density along the real line")
    p.add_argument("--c", required=True)
    p.add_argument("--range", default="-4:4:0.01", help="lo:hi:step")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--richardson", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("check", help="run the invariant suite")
    p.add_argument("target", nargs="?", default="all")
    p.add_argument("--level", choices=("desk", "full"), default="desk")
    add_format(p)
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (`| head`): send the rest of stdout, and the
        # flush at exit, to devnull so nothing is printed about it.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (BoundExceededError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True
            ),
            file=sys.stderr,
        )
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
