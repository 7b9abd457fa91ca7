#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    # Ten seeds of every workload, one checkout (set written to runs/0/):
    python3 perfbench/compare.py collect --out runs --runs 10

    # Alternating runs of two checkouts (base first on even seeds),
    # written to runs/0/ and runs/1/:
    python3 perfbench/compare.py collect --out runs --root ../base --root .

    # Median, quartiles and spread of one set, against the bounds:
    python3 perfbench/compare.py report runs/0

    # Verdict per workload and metric, base against change:
    python3 perfbench/compare.py compare runs/0 runs/1

A run's file holds the benchmark's stdout: the line before the last holds
the host, seed, stage, trace flag and operation counts, the last line the
result. Runs are grouped by workload, stage and trace flag; compare only
pairs runs of the same group and seed.

Verdicts, per workload and metric, for pairs matched by seed:
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and its median differs from the base median by more
              than the base's interquartile spread;
  regression  the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's spread is wider than the bound and not every run
              of the change beats every run of the base;
  same        none of these.
Per-layer metrics have no bound: they are reported as higher, lower or
same by the pair and spread rule alone.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_specs(spec):
    """{name: metric}; per-layer metrics get bound None."""
    out = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = dict(m, bound=None)
    return out


# --- collect -----------------------------------------------------------------


def collect(args):
    roots = [pathlib.Path(r).resolve() for r in (args.root or [HERE.parent])]
    spec = load_spec(roots[0])
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = pathlib.Path(args.out)
    for i in range(len(roots)):
        (out / str(i)).mkdir(parents=True, exist_ok=True)
    for n in range(args.runs):
        seed = args.seed0 + n
        for w in workloads:
            order = list(range(len(roots)))
            if n % 2 == 1:
                order.reverse()
            for i in order:
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(args.seconds or spec["run_seconds"]),
                    "--trace", str(args.trace), "--stage", args.stage]
                done = subprocess.run(cmd, cwd=roots[i], capture_output=True,
                                      text=True)
                path = (out / str(i) /
                        f"{w}-{args.stage}-t{args.trace}-{seed}.out")
                path.write_text(done.stdout)
                status = "ok" if done.returncode == 0 else "exit %d" % done.returncode
                print(f"{path}: {status}", file=sys.stderr)


# --- reading sets ------------------------------------------------------------


def group_of(info):
    """A set's runs are grouped by workload, stage and trace flag."""
    label = info["workload"]
    extra = [x for x in (None if info["stage"] == "final" else info["stage"],
                         "traced" if info["trace"] else None) if x]
    return label + (f" [{', '.join(extra)}]" if extra else "")


def read_set(directory):
    """Returns {group: {seed: (info, result)}}; see group_of."""
    runs, paths = {}, {}
    for path in sorted(pathlib.Path(directory).glob("*.out")):
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if len(lines) < 2:
            print(f"{path}: no result", file=sys.stderr)
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        key = (group_of(info), info["seed"])
        if key in paths:
            sys.exit(f"{path} and {paths[key]}: two runs of {key[0]}, "
                     f"seed {key[1]}")
        paths[key] = path
        runs.setdefault(key[0], {})[key[1]] = (info, result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, name):
    return [r["metrics"][name]["value"] for _, r in runs.values()
            if name in r["metrics"]]


def failed_share(runs):
    att = sum(r["attempted"] for _, r in runs.values())
    fail = sum(r["failed"] for _, r in runs.values())
    return fail, att


# --- report ------------------------------------------------------------------


def report(args):
    specs = metric_specs(load_spec(HERE.parent))
    runs = read_set(args.dir)
    worst = 0.0
    for w, wr in sorted(runs.items()):
        fail, att = failed_share(wr)
        bad = sum(1 for _, r in wr.values() if not r["correct"])
        host = next(iter(wr.values()))[0]["host"]
        steal = statistics.median(i.get("host_steal_s", 0)
                                  for i, _ in wr.values())
        print(f"{w}: {len(wr)} runs, failed {fail}/{att}, "
              f"{bad} incorrect, median host steal {steal:.2f} s per run, "
              f"host {json.dumps(host)}")
        names = sorted({n for _, r in wr.values() for n in r["metrics"]})
        for name in names:
            vals = values_of(wr, name)
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else (
                    "wide" if spread < bound else "OVER BOUND")
            unit = specs.get(name, {}).get("unit", "")
            print(f"  {name:40s} median {med:12.4f} {unit:6s} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {spread:6.3f}"
                  + (f" bound {bound} {flag}" if bound is not None else ""))
    print(f"largest spread/bound: {worst:.3f}")


# --- compare -----------------------------------------------------------------


def verdict(spec, base, new):
    """base/new: {seed: value}; returns (verdict, wins, pairs)."""
    better_higher = spec["better"] == "higher"
    seeds = sorted(set(base) & set(new))
    ups = sum(1 for s in seeds if new[s] > base[s])
    downs = sum(1 for s in seeds if new[s] < base[s])
    wins = ups if better_higher else downs
    bv, nv = list(base.values()), list(new.values())
    q1, bmed, q3 = quartiles(bv)
    nmed = statistics.median(nv)
    iqr = q3 - q1
    moved = abs(nmed - bmed) > iqr
    bound = spec["bound"]
    if bound is None:
        if seeds and moved and ups >= 0.9 * len(seeds):
            return "higher", wins, len(seeds)
        if seeds and moved and downs >= 0.9 * len(seeds):
            return "lower", wins, len(seeds)
        return "same", wins, len(seeds)
    improved = (nmed > bmed) == better_higher and nmed != bmed
    if seeds and wins >= 0.9 * len(seeds) and moved and improved:
        return "gain", wins, len(seeds)
    worse = (bmed - nmed) if better_higher else (nmed - bmed)
    if worse > bound * abs(bmed):
        return "regression", wins, len(seeds)
    all_better = all((n > b) == better_higher and n != b
                     for n in nv for b in bv)
    if bmed and iqr / abs(bmed) > bound and not all_better:
        return "unresolved", wins, len(seeds)
    return "same", wins, len(seeds)


def compare(args):
    specs = metric_specs(load_spec(HERE.parent))
    base, new = read_set(args.base), read_set(args.new)
    for w in sorted(set(base) ^ set(new)):
        side = "base" if w in base else "change"
        print(f"{w}: only in the {side} set, not compared", file=sys.stderr)
    for w in sorted(set(base) & set(new)):
        bf, ba = failed_share(base[w])
        nf, na = failed_share(new[w])
        print(f"{w}: base failed {bf}/{ba}, change failed {nf}/{na}")
        names = sorted({n for _, r in base[w].values() for n in r["metrics"]})
        for name in names:
            spec = specs.get(name)
            if spec is None:
                continue
            b = {s: r["metrics"][name]["value"]
                 for s, (_, r) in base[w].items() if name in r["metrics"]}
            n = {s: r["metrics"][name]["value"]
                 for s, (_, r) in new[w].items() if name in r["metrics"]}
            if not b or not n:
                continue
            v, wins, pairs = verdict(spec, b, n)
            if v == "gain" and nf * ba > bf * na:
                v = "same (more failed operations)"
            bq = quartiles(list(b.values()))
            nq = quartiles(list(n.values()))
            print(f"  {name:40s} base {bq[1]:12.4f} [{bq[0]:.4f}, {bq[2]:.4f}]"
                  f"  change {nq[1]:12.4f} [{nq[0]:.4f}, {nq[2]:.4f}]"
                  f"  wins {wins}/{pairs}  {v}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--root", action="append",
                   help="checkout to run (repeat for alternating sets)")
    c.add_argument("--workload", action="append")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c.add_argument("--stage", default="final", choices=("final", "baseline"))
    r = sub.add_parser("report")
    r.add_argument("dir")
    m = sub.add_parser("compare")
    m.add_argument("base")
    m.add_argument("new")
    args = p.parse_args()
    {"collect": collect, "report": report, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
