"""``repro-analyze``: the conformance analyzer's command line.

Subcommands:

* ``lint [paths...] [--format text|json|sarif]`` — run the static
  determinism/durability lint (default targets: ``src/repro/apps`` and
  ``src/repro/core``); exits non-zero when findings remain.
* ``infer [paths...] [--check] [--format text|json]`` — whole-program
  component-type inference: classify every component class into the
  cheapest safe type and report PHX010/PHX011/PHX012 disagreements
  with the declarations.  ``--check`` is the CI gate: exit non-zero on
  any finding.
* ``cost [paths...] [--format json|text]`` — the static force/record
  cost model: predicted logging cost per exported call path under
  Algorithms 1-5 and the Section 3.5 multi-call rule.
* ``sites [paths...] [--format text|json|sarif]`` — PHX013: every
  FaultPlane durability site family must be covered by a registered
  scheduler yield point (or carry an exemption) so the schedule
  explorer can reach it; also flags unregistered yield-tag literals.
* ``plan [paths...] [--check] [--write] [--format json|text|sarif]``
  — the static shard planner: build the priced component-interaction
  graph, partition it into log shards and emit the deterministic
  ``LogPlan`` JSON artifact.  ``--check`` is the CI gate: rebuild the
  plan under the committed plan's configuration, byte-compare, and
  report PHX015/PHX016.  ``--write`` commits the rebuilt plan to
  ``--against`` (default ``plans/apps.logplan.json``).
* ``rules`` — list every PHX lint rule and TRC trace invariant with its
  paper reference.
* ``trace-demo`` — run a small crash/recover workload and print the
  trace checker's verdict over the resulting logs, as an end-to-end
  smoke test of the invariant checker.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .lint import lint_paths
from .rules import RULES
from .trace_check import INVARIANTS

_DEFAULT_TARGETS = ("src/repro/apps", "src/repro/core")
#: inference/cost work on deployed components; core has none
_DEFAULT_INFER_TARGETS = ("src/repro/apps",)
#: the PHX013 site scan covers everything that can hit a crash site
_DEFAULT_SITES_TARGETS = ("src/repro",)
#: the committed shard plan artifact
DEFAULT_PLAN_PATH = "plans/apps.logplan.json"


def _resolve_paths(raw: list[str], defaults: tuple[str, ...]) -> list[Path] | None:
    paths = [Path(p) for p in (raw or defaults)]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro-analyze: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return None
    return paths


def _sarif(findings) -> dict:
    """Minimal SARIF 2.1.0 document for editor/CI ingestion."""
    rule_ids = sorted({finding.rule_id for finding in findings})
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-analyze",
                "informationUri": "https://example.invalid/repro-analyze",
                "rules": [
                    {
                        "id": rule_id,
                        "shortDescription": {"text": RULES[rule_id].title},
                        "help": {"text": RULES[rule_id].fixit},
                    }
                    for rule_id in rule_ids
                    if rule_id in RULES
                ],
            }},
            "results": [
                {
                    "ruleId": finding.rule_id,
                    "level": "error",
                    "message": {"text": finding.message},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {"uri": str(finding.path)},
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                            },
                        },
                    }],
                }
                for finding in findings
            ],
        }],
    }


def _emit_findings(findings, fmt: str, clean_message: str) -> int:
    if fmt == "json":
        print(json.dumps(
            {"findings": [finding.to_dict() for finding in findings]},
            indent=2,
        ))
        return 1 if findings else 0
    if fmt == "sarif":
        print(json.dumps(_sarif(findings), indent=2))
        return 1 if findings else 0
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(clean_message)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    paths = _resolve_paths(args.paths, _DEFAULT_TARGETS)
    if paths is None:
        return 2
    findings = lint_paths(paths)
    return _emit_findings(
        findings, args.format, f"clean: {', '.join(map(str, paths))}"
    )


def _cmd_infer(args: argparse.Namespace) -> int:
    from .infer import run_inference
    from .model import ProgramModel, iter_py_files

    paths = _resolve_paths(args.paths, _DEFAULT_INFER_TARGETS)
    if paths is None:
        return 2
    model = ProgramModel.from_paths(list(iter_py_files(paths)))
    result = run_inference(model)
    if args.format == "sarif":
        # SARIF carries only the findings (PHX010-013 family); the
        # classification table stays text/json
        return _emit_findings(result.findings, "sarif", "")
    if args.check:
        for finding in result.findings:
            print(finding.render())
        if result.findings:
            print(
                f"infer --check: {len(result.findings)} finding(s) over "
                f"{', '.join(map(str, paths))}",
                file=sys.stderr,
            )
            return 1
        print(
            f"infer --check: clean — {len(result.reports)} component "
            f"class(es) match their declarations"
        )
        return 0
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return 1 if result.findings else 0
    header = (
        f"{'class':32s} {'declared':12s} {'inferred':12s} "
        f"{'agrees':6s} processes"
    )
    print(header)
    print("-" * len(header))
    for report in result.reports:
        print(
            f"{report.info.name:32s} {report.declared or '-':12s} "
            f"{report.inferred:12s} "
            f"{'yes' if report.agrees else 'NO':6s} "
            f"{', '.join(sorted(report.processes)) or '-'}"
        )
    print()
    for finding in result.findings:
        print(finding.render())
    disagreeing = sum(1 for report in result.reports if not report.agrees)
    if result.findings:
        print(
            f"{len(result.findings)} finding(s), {disagreeing} "
            "class(es) disagree with their declaration",
            file=sys.stderr,
        )
        return 1
    print(
        f"all {len(result.reports)} component class(es) agree with "
        "their declarations"
    )
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from .infer.costmodel import build_cost_model
    from .model import ProgramModel, iter_py_files

    paths = _resolve_paths(args.paths, _DEFAULT_INFER_TARGETS)
    if paths is None:
        return 2
    cost_model = build_cost_model(
        ProgramModel.from_paths(list(iter_py_files(paths)))
    )
    report = cost_model.report()
    report["force_bounds"] = cost_model.force_bounds().to_dict()
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    header = (
        f"{'entry path':44s} {'baseline':>10s} {'optimized':>10s} "
        f"{'multicall':>10s} loops"
    )
    print(header)
    print("-" * len(header))
    for path in report["paths"]:
        name = f"{path['entry']}.{path['method']}()"
        baseline = path["baseline"]
        optimized = path["optimized"]
        print(
            f"{name:44s} "
            f"{baseline['forces']:>4d}f/{baseline['records']:>3d}r "
            f"{optimized['forces']:>4d}f/{optimized['records']:>3d}r "
            f"{-path['multicall_saved_forces']:>+9d}f "
            f"{path['loop_edges']}"
        )
    print(
        "\nper one external invocation; loop edges priced for a single "
        "iteration\nmulticall column: forces saved per call when "
        "Section 3.5 is enabled"
    )
    return 0


def _plan_text(plan) -> None:
    header = f"{'component':28s} {'type':12s} shard"
    print(header)
    print("-" * len(header))
    for entry in plan.components:
        print(
            f"{entry['name']:28s} {entry['type']:12s} "
            f"{entry['shard'] or '-'}"
        )
    print()
    for shard in plan.shards:
        print(
            f"shard {shard['id']}: {len(shard['components'])} "
            f"component(s), message load {shard['force_load']:g}"
        )
    cut = [e for e in plan.edges if e["cross_shard"]]
    print(
        f"{len(plan.edges)} edge(s), {len(cut)} cross-shard "
        f"(cut weight {sum(e['weight'] for e in cut):g})"
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    from .model import ProgramModel, iter_py_files
    from .plan import (
        LogPlan,
        PlanConfig,
        build_plan,
        drift_findings,
        plan_findings,
    )

    paths = _resolve_paths(args.paths, _DEFAULT_INFER_TARGETS)
    if paths is None:
        return 2

    against = Path(args.against)
    committed: LogPlan | None = None
    if args.check:
        if not against.exists():
            print(
                f"repro-analyze plan --check: no committed plan at "
                f"{against} (run plan --write first)",
                file=sys.stderr,
            )
            return 2
        committed_text = against.read_text()
        committed = LogPlan.loads(committed_text)
        # rebuild under the committed configuration so the comparison
        # is apples-to-apples
        config = committed.config
    else:
        config = PlanConfig(
            shards=args.shards,
            loop_weight=args.loop_weight,
            cut_threshold=args.cut_threshold,
        )

    model = ProgramModel.from_paths(list(iter_py_files(paths)))
    plan = build_plan(model, config)
    findings = plan_findings(plan)
    if committed is not None:
        findings.extend(drift_findings(plan, committed, str(against)))
        findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.col))

    if args.write:
        against.parent.mkdir(parents=True, exist_ok=True)
        plan.write(against)

    if args.format == "sarif":
        return _emit_findings(findings, "sarif", "")
    if args.check:
        byte_identical = plan.dumps() == committed_text
        for finding in findings:
            print(finding.render())
        if findings or not (byte_identical or args.write):
            if not findings:
                print(
                    f"plan --check: {against} is stale (byte diff vs "
                    "the rebuilt plan); run plan --write",
                    file=sys.stderr,
                )
            else:
                print(
                    f"plan --check: {len(findings)} finding(s)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"plan --check: clean — {against} matches the wiring "
            f"({len(plan.components)} component(s), "
            f"{len(plan.shards)} shard(s))"
        )
        return 0
    if args.format == "json":
        # the canonical artifact bytes — two runs over one tree are
        # byte-identical
        sys.stdout.write(plan.dumps())
    else:
        _plan_text(plan)
    for finding in findings:
        print(finding.render(), file=sys.stderr)
    return 1 if findings else 0


def _cmd_sites(args: argparse.Namespace) -> int:
    # Imported lazily: sites.py reads the yield-tag registry from
    # repro.concurrency, which the core analysis modules must not pull
    # in at import time.
    from .sites import scan_paths

    paths = _resolve_paths(args.paths, _DEFAULT_SITES_TARGETS)
    if paths is None:
        return 2
    findings = scan_paths(paths)
    return _emit_findings(
        findings, args.format,
        "clean: every durability site family has a covering yield "
        "point (or a registered exemption)",
    )


def _cmd_rules(_args: argparse.Namespace) -> int:
    print("Static lint rules:")
    for rule in RULES.values():
        print(f"  {rule.rule_id}  {rule.title}")
        print(f"          paper: {rule.paper_ref}")
    print("Trace invariants:")
    for invariant_id, title in INVARIANTS.items():
        print(f"  {invariant_id}  {title}")
    return 0


def _cmd_trace_demo(_args: argparse.Namespace) -> int:
    # Imported here: the demo needs the full runtime, which the analysis
    # modules themselves deliberately do not depend on.
    from ..core.attributes import persistent
    from ..core.component import PersistentComponent
    from ..core.runtime import PhoenixRuntime
    from .trace_check import check_process

    @persistent
    class Account(PersistentComponent):
        def __init__(self):
            self.balance = 0

        def deposit(self, amount):
            self.balance += amount
            return self.balance

    runtime = PhoenixRuntime()
    process = runtime.spawn_process("demo", machine="alpha")
    account = process.create_component(Account)
    for amount in (10, 20, 30):
        account.deposit(amount)
    runtime.crash_process(process)
    final = account.deposit(40)  # auto-recovers, replays, goes live
    violations = check_process(process)
    events = process.protocol_trace.events()
    print(
        f"demo: {process.recovery_count} recovery, "
        f"{len(events)} traced decisions, final balance={final}"
    )
    if violations:
        for violation in violations:
            print(f"  {violation.render()}")
        return 1
    print("  log conforms to Algorithms 2-5 commit conditions")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Phoenix/App protocol-conformance analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint_parser = sub.add_parser("lint", help="run the static lint")
    lint_parser.add_argument("paths", nargs="*", help="files or dirs")
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    infer_parser = sub.add_parser(
        "infer", help="whole-program component-type inference"
    )
    infer_parser.add_argument("paths", nargs="*", help="files or dirs")
    infer_parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: exit non-zero on any PHX010/011/012 finding",
    )
    infer_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; sarif emits findings only)",
    )
    infer_parser.set_defaults(func=_cmd_infer)

    cost_parser = sub.add_parser(
        "cost", help="static force/record cost model per call path"
    )
    cost_parser.add_argument("paths", nargs="*", help="files or dirs")
    cost_parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default: json; machine-readable)",
    )
    cost_parser.set_defaults(func=_cmd_cost)

    plan_parser = sub.add_parser(
        "plan", help="static shard planner"
    )
    plan_parser.add_argument("paths", nargs="*", help="files or dirs")
    plan_parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: rebuild under the committed plan's config, "
             "byte-compare, and report PHX015/PHX016",
    )
    plan_parser.add_argument(
        "--write",
        action="store_true",
        help="write the rebuilt plan to --against",
    )
    plan_parser.add_argument(
        "--format",
        choices=("json", "text", "sarif"),
        default="json",
        help="output format (default: json — the canonical artifact "
             "bytes; sarif emits findings only)",
    )
    plan_parser.add_argument(
        "--against",
        default=DEFAULT_PLAN_PATH,
        help=f"committed plan artifact (default: {DEFAULT_PLAN_PATH})",
    )
    plan_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="target shard count (default: one per process signature)",
    )
    plan_parser.add_argument(
        "--loop-weight",
        type=int,
        default=4,
        help="assumed iterations when pricing loop edges (default: 4)",
    )
    plan_parser.add_argument(
        "--cut-threshold",
        type=float,
        default=8.0,
        help="PHX015 fires on cuttable cross-shard edges pricing more "
             "forces per sweep than this (default: 8.0)",
    )
    plan_parser.set_defaults(func=_cmd_plan)

    sites_parser = sub.add_parser(
        "sites", help="PHX013: durability-site yield-point coverage"
    )
    sites_parser.add_argument("paths", nargs="*", help="files or dirs")
    sites_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    sites_parser.set_defaults(func=_cmd_sites)

    rules_parser = sub.add_parser("rules", help="list rules/invariants")
    rules_parser.set_defaults(func=_cmd_rules)

    demo_parser = sub.add_parser(
        "trace-demo", help="run the trace checker on a demo workload"
    )
    demo_parser.set_defaults(func=_cmd_trace_demo)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
