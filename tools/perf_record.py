#!/usr/bin/env python3
"""Keep BENCH_perfbench.json, the committed perfbench trajectory.

    python3 tools/perf_record.py --pr N --parent-commit REV
        --parent RUN... --change RUN...
    python3 tools/perf_record.py --check

Each RUN file holds the stdout of one `perfbench/run.py ... --trace 0` run
at BENCHMARK.json's run_seconds: its last two lines are the details line
(workload, seed, errors) and the result line (correct, failed, metrics).  A
run whose content-model checks failed (correct not true, or errors on the
details line) is refused.  A parent run and a change run of the same
workload and seed form a pair; run the two sides alternately so host drift
hits both alike.  The first form turns the pairs into one record and
appends it to the file: BENCHMARK.json's run_seconds, and for each workload
its seeds and failed ops, and for each end-to-end metric of BENCHMARK.json
each side's median and quartiles and the pairs the change won (strictly
better) and tied.

A record's change_commit is null when it is written, since its change is
not committed yet (a commit cannot name itself).  The next append fills it
in with the commit that last changed the file, which is the one that added
the record, provided the file is committed as it stands.

--check validates every record against the workloads and end-to-end metrics
of BENCHMARK.json and exits 1 on the first file with errors.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
TRAJECTORY = os.path.join(ROOT, "BENCH_perfbench.json")
SHA = re.compile(r"^[0-9a-f]{40}$")
RECORD_KEYS = {"pr", "parent_commit", "change_commit", "run_seconds",
               "workloads"}
WORKLOAD_KEYS = {"seeds", "failed_ops", "metrics"}
METRIC_KEYS = {"unit", "better", "parent", "change", "pairs_won",
               "pairs_tied"}
SIDE_KEYS = {"q1", "median", "q3"}


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    return workloads, metrics, spec["run_seconds"]


def read_run(path):
    """(workload, seed, failed ops, {metric: value}) of one run.py stdout."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2:
        sys.exit("%s: want a details line and a result line" % path)
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if result.get("correct") is not True or details.get("errors") != []:
        sys.exit("%s: the run failed its checks: %s"
                 % (path, details.get("errors")))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return details["workload"], details["seed"], result["failed"], values


def summary(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def make_record(args, workloads, metrics, run_seconds):
    runs = {"parent": {}, "change": {}}
    for side, paths in (("parent", args.parent), ("change", args.change)):
        for path in paths:
            workload, seed, failed, values = read_run(path)
            if workload not in workloads:
                sys.exit("%s: workload %s is not in BENCHMARK.json"
                         % (path, workload))
            if (workload, seed) in runs[side]:
                sys.exit("%s: a second %s run of %s seed %s"
                         % (path, side, workload, seed))
            runs[side][(workload, seed)] = (failed, values)
    if set(runs["parent"]) != set(runs["change"]):
        unpaired = set(runs["parent"]) ^ set(runs["change"])
        sys.exit("runs without a partner: %s" % sorted(unpaired))
    record = {
        "pr": args.pr,
        "parent_commit": rev_parse(args.parent_commit),
        "change_commit": None,
        "run_seconds": run_seconds,
        "workloads": {},
    }
    for workload in workloads:
        seeds = sorted(s for w, s in runs["parent"] if w == workload)
        if not seeds:
            sys.exit("no runs of workload %s" % workload)
        pairs = [(runs["parent"][(workload, s)], runs["change"][(workload, s)])
                 for s in seeds]
        entry = {"seeds": seeds,
                 "failed_ops": {"parent": sum(p[0] for p, _ in pairs),
                                "change": sum(c[0] for _, c in pairs)},
                 "metrics": {}}
        for name, spec in metrics.items():
            parent = [p[1][name] for p, _ in pairs]
            change = [c[1][name] for _, c in pairs]
            sign = 1 if spec["better"] == "higher" else -1
            entry["metrics"][name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "parent": summary(parent),
                "change": summary(change),
                "pairs_won": sum(sign * (c - p) > 0
                                 for p, c in zip(parent, change)),
                "pairs_tied": sum(c == p for p, c in zip(parent, change)),
            }
        record["workloads"][workload] = entry
    return record


def rev_parse(rev):
    out = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("not a commit: %s" % rev)
    return out.stdout.strip()


def committed_as(path):
    """The commit that last changed `path`, or None when the file differs
    from that commit or git does not track it."""
    def git(*argv):
        return subprocess.run(["git"] + list(argv),
                              cwd=os.path.dirname(os.path.abspath(path)),
                              capture_output=True, text=True)
    name = os.path.basename(path)
    if git("diff", "--quiet", "HEAD", "--", name).returncode != 0:
        return None
    sha = git("log", "-1", "--format=%H", "--", name).stdout.strip()
    return sha if SHA.match(sha) else None


def check_record(i, record, workloads, metrics, last_pr):
    """The errors in one record, as strings."""
    where = "record %d" % i
    if not isinstance(record, dict) or set(record) != RECORD_KEYS:
        return ["%s: keys must be %s" % (where, sorted(RECORD_KEYS))]
    errors = []
    pr = record["pr"]
    if not isinstance(pr, int) or pr <= last_pr:
        errors.append("%s: pr must be an integer above %d" % (where, last_pr))
    where = "record %d (pr %s)" % (i, pr)
    if not SHA.match(str(record["parent_commit"])):
        errors.append("%s: parent_commit is not a full sha" % where)
    if record["change_commit"] is not None and \
            not SHA.match(str(record["change_commit"])):
        errors.append("%s: change_commit is neither null nor a full sha"
                      % where)
    if not isinstance(record["run_seconds"], (int, float)) or \
            record["run_seconds"] <= 0:
        errors.append("%s: run_seconds must be positive" % where)
    if set(record["workloads"]) != set(workloads):
        errors.append("%s: workloads must be %s" % (where, sorted(workloads)))
        return errors
    for workload, entry in record["workloads"].items():
        at = "%s %s" % (where, workload)
        if set(entry) != WORKLOAD_KEYS:
            errors.append("%s: keys must be %s" % (at, sorted(WORKLOAD_KEYS)))
            continue
        seeds = entry["seeds"]
        if not seeds or len(set(seeds)) != len(seeds) or \
                not all(isinstance(s, int) for s in seeds):
            errors.append("%s: seeds must be distinct integers" % at)
        failed = entry["failed_ops"]
        if set(failed) != {"parent", "change"} or \
                not all(isinstance(n, int) and n >= 0 for n in failed.values()):
            errors.append("%s: failed_ops needs a count per side" % at)
        if set(entry["metrics"]) != set(metrics):
            errors.append("%s: metrics must be %s" % (at, sorted(metrics)))
            continue
        for name, m in entry["metrics"].items():
            errors += check_metric("%s %s" % (at, name), m, metrics[name],
                                   len(seeds))
    return errors


def check_metric(at, m, spec, pairs):
    if set(m) != METRIC_KEYS:
        return ["%s: keys must be %s" % (at, sorted(METRIC_KEYS))]
    errors = []
    if m["unit"] != spec["unit"] or m["better"] != spec["better"]:
        errors.append("%s: unit and better must be BENCHMARK.json's" % at)
    for side in ("parent", "change"):
        s = m[side]
        if set(s) != SIDE_KEYS or \
                not all(isinstance(v, (int, float)) for v in s.values()):
            errors.append("%s: %s needs numbers %s" % (at, side,
                                                       sorted(SIDE_KEYS)))
        elif not s["q1"] <= s["median"] <= s["q3"]:
            errors.append("%s: %s quartiles out of order" % (at, side))
    won, tied = m["pairs_won"], m["pairs_tied"]
    if not (isinstance(won, int) and isinstance(tied, int) and
            won >= 0 and tied >= 0 and won + tied <= pairs):
        errors.append("%s: pairs_won + pairs_tied must lie in 0..%d"
                      % (at, pairs))
    return errors


def check(path, workloads, metrics):
    with open(path) as f:
        data = json.load(f)
    records = data.get("records") if isinstance(data, dict) else None
    if not records or set(data) != {"records"}:
        return ["%s: want {\"records\": [at least one record]}" % path]
    errors, last_pr = [], 0
    for i, record in enumerate(records):
        errors += check_record(i, record, workloads, metrics, last_pr)
        if isinstance(record, dict) and isinstance(record.get("pr"), int):
            last_pr = record["pr"]
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--file", default=TRAJECTORY)
    parser.add_argument("--pr", type=int)
    parser.add_argument("--parent-commit")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    args = parser.parse_args()
    workloads, metrics, run_seconds = load_spec()
    if args.check:
        errors = check(args.file, workloads, metrics)
        for e in errors:
            print(e, file=sys.stderr)
        if errors:
            sys.exit(1)
        with open(args.file) as f:
            count = len(json.load(f)["records"])
        print("%s: %d record(s) match BENCHMARK.json"
              % (os.path.relpath(args.file, ROOT), count))
        return
    if args.pr is None or not args.parent_commit or not args.parent or \
            not args.change:
        parser.error("a record needs --pr, --parent-commit, --parent and "
                     "--change")
    record = make_record(args, workloads, metrics, run_seconds)
    data = {"records": []}
    if os.path.exists(args.file):
        with open(args.file) as f:
            data = json.load(f)
    if data["records"] and data["records"][-1]["change_commit"] is None:
        data["records"][-1]["change_commit"] = committed_as(args.file)
    data["records"].append(record)
    errors = check_record(len(data["records"]) - 1, record, workloads,
                          metrics, max([0] + [r["pr"] for r in
                                              data["records"][:-1]]))
    if errors:
        sys.exit("\n".join(errors))
    with open(args.file, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    print("%s: appended the record of pr %d"
          % (os.path.relpath(args.file, ROOT), args.pr))


if __name__ == "__main__":
    main()
