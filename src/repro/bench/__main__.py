"""Regenerate the full evaluation and write EXPERIMENTS.md.

Usage::

    python -m repro.bench [output-path]

Runs every experiment of the paper's Section 5 at full size and writes
a markdown report pairing measured values with the paper's published
numbers.  (The pytest-benchmark wrappers in ``benchmarks/`` run the same
experiments with shape assertions; this module is the report generator.)
"""

from __future__ import annotations

import sys
import time

from .ablations import (
    attachment_omission_ablation,
    force_combining_ablation,
    log_gc_ablation,
    short_record_ablation,
    static_type_seeding_ablation,
)
from .checkpoint_sweep import checkpoint_interval_sweep
from .comparison import queue_comparison
from .plan_forces import plan_forces_comparison
from .experiments import (
    figure9,
    multicall_ablation,
    table4,
    table5,
    table6,
    table7,
    table8,
)

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of the evaluation of Barga, Chen & Lomet, *Improving
Logging and Recovery Performance in Phoenix/App* (ICDE 2004), on the
deterministic simulation substrate described in DESIGN.md.  Every value
below is in (simulated) milliseconds unless stated otherwise; "paper"
values are the published numbers.  Regenerate this file with
`python -m repro.bench`.

Absolute agreement is expected to be loose — the substrate is a
calibrated simulator, not the authors' 2003 testbed — but the *shape*
claims (who wins, by what factor, where crossovers fall) are asserted
programmatically in `benchmarks/`.

"""

_DISCUSSION = """
## Reading the results

- **Table 4** — native-call rows match to the microsecond (they
  calibrate the cost model).  External→Persistent is unchanged by the
  optimizations, as in the paper (same Algorithm-3 force count).
  Persistent→Persistent shows the headline result: the optimized
  algorithms halve the force count (4 → 2), and elapsed time follows.
  One deviation: the paper's *local* optimized P→P measured two
  *just-missed* rotations (~17.9 ms) where our deterministic disk locks
  into a mid-rotation phase (~11-12 ms, like the paper's own *remote*
  case).  Phase locking is the one place a deterministic simulator
  cannot reproduce hardware happenstance; the force counts — the thing
  the algorithms control — match exactly.
- **Table 5** — every specialized-type row is force-free and lands
  within ~0.15 ms of the paper: the 0.5 ms type-attachment overhead,
  the 0.15-0.2 ms unforced reply write for read-only servers, and the
  ~34 ns direct subordinate call are all visible.
- **Figure 9** — the staircase emerges mechanistically from the
  rotational model: flat at ~8.5 ms, one-rotation (8.33 ms) risers at
  each missed rotation.
- **Table 6** — saving a context state on every call adds ~1.3 ms of
  computation (paper: ~1 ms); enabling the write cache removes the
  media cost, exposing it.
- **Table 7** — empty-log recovery ≈ 492 ms, creation +80 ms, state
  restore +60 ms, replay 0.15 ms/call: the measured series is linear
  and the checkpoint break-even lands at the paper's ~400 calls.  (The
  paper's own series is noisy — up to 12% deviation — so its
  high-count cells bend away from the stated 0.15 ms/call slope;
  we reproduce the stated constants.)
- **Table 8** — the bookstore improves monotonically at each
  optimization level with elapsed ≈ forces × one disk rotation, exactly
  the paper's explanation of its own numbers.  Our scripted BookBuyer
  issues fewer stateful external calls per iteration than the paper's
  menu-driven client, so our specialized level saves proportionally
  more (the paper's external-call floor — forces that no optimization
  can remove — is higher).
- **Multi-call** (Section 3.5) — implemented here although the paper's
  prototype did not: fan-out forces collapse from k+1 to a constant 2,
  the paper's §5.5.2 prediction for the PriceGrabber.
- **Plan conformance** (extension) — the static shard planner
  (`repro-analyze plan`, docs/internals.md section 15) commits a
  message-logging force budget per entry span; here those budgets
  meet real traces.  Observed forces sit exactly at (backend, bookstore)
  or inside (desk) the budget, which TRC109 enforces on every test
  run.
- **Static type seeding** (extension) — Section 3.4 learns server
  types from reply attachments, so a process's first call to each
  server pays conservative Algorithm 2/3 costs.  Warm-starting the
  remote type table from the statically verified declarations
  (`repro-analyze infer --check` gates them; `config.
  static_type_seeding` trusts them) removes every unknown-peer call
  and its cold-start force requests and attachment bytes, with
  byte-identical logs when the flag is off and identical replies when
  it is on.

## Known modelling divergences

1. **Push vs. pull replies to external clients.**  The paper's .NET
   remoting can push a regenerated reply to an external client after
   recovery; our synchronous RPC model cannot, so an external caller
   whose call was interrupted must retry and — having no call ID — may
   re-execute.  This *widens* the external window of vulnerability the
   paper already concedes in Section 3.1.2; all guarantees between
   persistent components are unaffected (and property-tested).
2. **Disk phase locking.**  Real disks plus OS jitter average
   rotational phase; the deterministic simulator locks into one phase
   per workload.  Individual elapsed-time cells can therefore sit a
   rotation away from the paper's; force counts and staircase structure
   are exact.
3. **Timer quality.**  The paper fights a ~15 ms OS timer by batching;
   we batch the same way for fidelity, but the simulated clock is
   exact, so our variance is zero.
"""


def main(argv: list[str]) -> int:
    output_path = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    sections = []
    experiments = [
        ("Table 4", lambda: table4(calls=300)),
        ("Table 5", lambda: table5(calls=300)),
        ("Figure 9", figure9),
        ("Table 6", lambda: table6(calls=300)),
        ("Table 7", table7),
        ("Table 8", lambda: table8(iterations=10)),
        ("Multi-call (Section 3.5)", multicall_ablation),
        ("Queued-stateless comparison (Section 1.1)", queue_comparison),
        ("Ablation: reply-attachment omission (Section 5.2.3)",
         attachment_omission_ablation),
        ("Ablation: short records (Algorithm 3)", short_record_ablation),
        ("Ablation: force combining (Section 3.1.1)",
         force_combining_ablation),
        ("Ablation: log garbage collection (extension)", log_gc_ablation),
        ("Ablation: static type seeding (extension)",
         static_type_seeding_ablation),
        ("Checkpoint-interval sweep (Section 4.3)",
         checkpoint_interval_sweep),
        ("Plan conformance: predicted vs observed forces (extension)",
         plan_forces_comparison),
    ]
    for name, experiment in experiments:
        started = time.time()
        table = experiment()
        elapsed = time.time() - started
        print(f"{name}: done in {elapsed:.1f}s", file=sys.stderr)
        section = table.markdown()
        if table.key == "figure9":
            section += (
                "\n\nThe staircase, drawn:\n\n```\n"
                + table.ascii_chart()
                + "\n```"
            )
        sections.append(section)
    content = _HEADER + "\n\n".join(sections) + "\n" + _DISCUSSION
    with open(output_path, "w") as handle:
        handle.write(content)
    print(f"wrote {output_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
