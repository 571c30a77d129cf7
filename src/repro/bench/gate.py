"""The BENCH regression gate: committed artifacts become checked claims.

Each committed ``benchmarks/BENCH_*.json`` artifact records one
experiment's full-scale trajectory (E10b backend sweep, E14 catalog
throughput, E15 dynamic replay, E16 incremental replan, E18 sharded
placement, E19 serving daemon, E20 cost-model seam).  A
:class:`GateSpec` turns that prose-adjacent artifact into a machine
checked contract, in two tiers:

``artifact``
    Validate the committed file itself: schema (exact headers, per
    column dtypes) and the headline claims it was committed for --
    parity bits exactly (copy-set equality, bill identity must be
    ``True``; cost ratios within ``1e-9``), wall-clock-derived numbers
    inside a tolerance band (a speedup committed as 5.4x gates at
    >= 5.0x minus the band, because timings jitter between machines,
    not because the claim is soft).

``smoke``
    Re-run a budgeted tiny configuration of the same experiment through
    the trial harness (cached in a :class:`~repro.bench.store.TrialStore`,
    so unchanged trees re-check for free) and apply the scale-free
    subset of the checks: parity and identity must hold at *any* size;
    throughput claims are artifact-tier only, since a 60-node smoke run
    measures pool overhead, not scaling.

Tolerance semantics follow the approximate-data-structures framing
(Matias--Vitter--Young): numeric drift inside the declared band is
accepted, structural or ratio regressions are not.  On failure
:func:`run_gate` renders a readable expected-vs-actual diff and maps to
distinct exit codes: ``0`` pass, ``1`` regression, ``3`` missing
artifact (``2`` is the CLI's usage-error code).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .runner import run_sweep
from .store import TrialStore
from .trials import TrialConfig

__all__ = [
    "Check",
    "GateSpec",
    "Finding",
    "GateReport",
    "GATES",
    "check_payload",
    "validate_schema",
    "run_gate",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "EXIT_MISSING_ARTIFACT",
]

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MISSING_ARTIFACT = 3

#: Sentinel cell for "not applicable" in result tables.
_DASH = "--"

#: Default relative band for wall-clock-derived metrics (speedups):
#: machine jitter tolerance, not claim softening.
TIME_BAND = 0.2

#: Relative band for bill/ratio identity ("exact" up to float noise).
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    """One tolerance-banded claim about a result table.

    Rows are filtered by the ``where`` equality pairs, the ``column``
    cells are collected with ``"--"`` cells skipped, and every
    remaining cell must satisfy ``op``:

    ``is_true``
        exact parity bit -- the cell must be ``True``;
    ``approx``
        ``|cell - value| <= rel_tol * max(|value|, 1e-12)``;
    ``ge`` / ``le``
        banded bound: ``cell >= value * (1 - rel_tol)`` /
        ``cell <= value * (1 + rel_tol)``;
    ``gt``
        strict ``cell > value`` (no band);
    ``min_le``
        the *minimum* over the cells must be ``<= value * (1 + rel_tol)``
        (for sweeps where only the best row carries the claim).

    A filter that matches no usable cell fails the check -- a gate that
    silently checks nothing is worse than one that fails loudly.
    """

    label: str
    column: str
    op: str
    value: float | None = None
    rel_tol: float = 0.0
    where: tuple = ()
    tiers: tuple = ("artifact", "smoke")


@dataclass(frozen=True)
class GateSpec:
    """Schema + checks + smoke recipe for one gated experiment."""

    experiment: str                  # EXPERIMENT_RUNNERS key, e.g. "E10B"
    exp_id: str                      # artifact exp_id field, e.g. "E10b"
    artifact: str                    # file name under the artifact dir
    headers: tuple
    #: header -> dtype: "str" | "number" | "number?" | "bool?"
    #: ("?" marks columns where the "--" sentinel is legal).
    columns: dict = field(default_factory=dict)
    checks: tuple = ()
    smoke_params: dict = field(default_factory=dict)

    def smoke_trial(self) -> TrialConfig:
        return TrialConfig.make(self.experiment, **self.smoke_params)


@dataclass(frozen=True)
class Finding:
    """One check/schema outcome; ``detail`` is the expected-vs-actual text."""

    exp_id: str
    tier: str
    label: str
    ok: bool
    detail: str = ""
    missing_artifact: bool = False


@dataclass
class GateReport:
    """Everything one gate run found, with the derived exit code."""

    findings: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [f for f in self.findings if not f.ok]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        if any(f.missing_artifact for f in self.findings):
            return EXIT_MISSING_ARTIFACT
        return EXIT_OK if self.passed else EXIT_REGRESSION

    def render(self) -> str:
        lines = []
        for exp_id in dict.fromkeys(f.exp_id for f in self.findings):
            per_exp = [f for f in self.findings if f.exp_id == exp_id]
            bad = [f for f in per_exp if not f.ok]
            verdict = "FAIL" if bad else "ok"
            lines.append(f"[{exp_id}] {verdict} "
                         f"({len(per_exp) - len(bad)}/{len(per_exp)} checks)")
            for f in per_exp:
                mark = "ok  " if f.ok else "FAIL"
                detail = f" -- {f.detail}" if f.detail else ""
                lines.append(f"  {mark} {f.tier:8s} {f.label}{detail}")
        total_bad = len(self.failures)
        lines.append(
            "gate: all checks passed" if not total_bad
            else f"gate: {total_bad} check(s) failed"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# schema + check evaluation
# ----------------------------------------------------------------------
def _cell_ok(kind: str, cell) -> bool:
    if kind.endswith("?") and cell == _DASH:
        return True
    kind = kind.rstrip("?")
    if kind == "str":
        return isinstance(cell, str)
    if kind == "bool":
        return isinstance(cell, bool)
    if kind == "number":
        return isinstance(cell, (int, float)) and not isinstance(cell, bool)
    raise ValueError(f"unknown column kind {kind!r}")


def _check_schema(spec: GateSpec, payload, tier: str) -> list[Finding]:
    def finding(ok: bool, detail: str = "") -> Finding:
        return Finding(spec.exp_id, tier, "schema", ok, detail)

    if not isinstance(payload, dict):
        return [finding(False, "payload is not a JSON object")]
    missing = sorted(
        {"exp_id", "title", "headers", "rows", "notes"} - set(payload)
    )
    if missing:
        return [finding(False, f"missing key(s) {missing}")]
    if payload["exp_id"] != spec.exp_id:
        return [finding(
            False, f"exp_id {payload['exp_id']!r} != {spec.exp_id!r}"
        )]
    headers = tuple(payload["headers"])
    if headers != spec.headers:
        return [finding(
            False, f"headers {list(headers)} != {list(spec.headers)}"
        )]
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        return [finding(False, "rows must be a non-empty list")]
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(headers):
            return [finding(
                False, f"row {r} has {len(row)} cells, expected {len(headers)}"
            )]
        for header, cell in zip(headers, row):
            kind = spec.columns.get(header)
            if kind is not None and not _cell_ok(kind, cell):
                return [finding(
                    False,
                    f"row {r} column {header!r}: {cell!r} is not {kind}",
                )]
    return [finding(True)]


def _select_cells(spec: GateSpec, payload: dict, check: Check) -> list:
    col = spec.headers.index(check.column)
    where = [(spec.headers.index(h), v) for h, v in check.where]
    cells = []
    for row in payload["rows"]:
        if all(row[i] == v for i, v in where):
            if row[col] != _DASH:
                cells.append(row[col])
    return cells


def _eval_check(spec: GateSpec, payload: dict, check: Check, tier: str) -> Finding:
    def finding(ok: bool, detail: str) -> Finding:
        return Finding(spec.exp_id, tier, check.label, ok, detail)

    try:
        cells = _select_cells(spec, payload, check)
    except ValueError:
        return finding(False, f"column {check.column!r} not in headers")
    if not cells:
        cond = ", ".join(f"{h}={v!r}" for h, v in check.where) or "any row"
        return finding(False, f"no usable {check.column!r} cell where {cond}")

    v, tol = check.value, check.rel_tol
    if check.op == "is_true":
        bad = [c for c in cells if c is not True]
        return finding(
            not bad, f"expected True, got {bad}" if bad else f"{len(cells)} True"
        )
    if check.op == "approx":
        bad = [c for c in cells if abs(c - v) > tol * max(abs(v), 1e-12)]
        return finding(
            not bad,
            f"expected {v} +/- {tol} rel, got {bad}" if bad
            else f"{len(cells)} within {tol} rel of {v}",
        )
    if check.op == "ge":
        bound = v * (1.0 - tol)
        bad = [c for c in cells if c < bound]
        return finding(
            not bad,
            f"expected >= {bound:g} (= {v:g} - {tol:.0%} band), got {bad}"
            if bad else f"{len(cells)} >= {bound:g}",
        )
    if check.op == "le":
        bound = v * (1.0 + tol)
        bad = [c for c in cells if c > bound]
        return finding(
            not bad,
            f"expected <= {bound:g} (= {v:g} + {tol:.0%} band), got {bad}"
            if bad else f"{len(cells)} <= {bound:g}",
        )
    if check.op == "gt":
        bad = [c for c in cells if not c > v]
        return finding(
            not bad, f"expected > {v:g}, got {bad}" if bad else f"{len(cells)} > {v:g}"
        )
    if check.op == "min_le":
        best = min(cells)
        bound = v * (1.0 + tol)
        return finding(
            best <= bound,
            f"min {best:g} vs bound {bound:g} (= {v:g} + {tol:.0%} band)",
        )
    return finding(False, f"unknown check op {check.op!r}")


def validate_schema(spec: GateSpec, payload) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the spec's schema.

    The benchmark emit path calls this *before* persisting a refreshed
    ``BENCH_*.json``, so an artifact that the gate could not parse never
    reaches disk in the first place.
    """
    findings = _check_schema(spec, payload, "emit")
    if not findings[-1].ok:
        raise ValueError(
            f"{spec.exp_id} artifact fails its gate schema: "
            f"{findings[-1].detail}"
        )


def check_payload(spec: GateSpec, payload, tier: str) -> list[Finding]:
    """Schema-validate ``payload`` and apply the tier's checks.

    A schema failure short-circuits the metric checks -- they would
    only cascade into confusing index errors.
    """
    findings = _check_schema(spec, payload, tier)
    if not findings[-1].ok:
        return findings
    for check in spec.checks:
        if tier in check.tiers:
            findings.append(_eval_check(spec, payload, check, tier))
    return findings


# ----------------------------------------------------------------------
# the gated experiments
# ----------------------------------------------------------------------
GATES: dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> GateSpec:
    GATES[spec.experiment] = spec
    return spec


_register(GateSpec(
    experiment="E10B",
    exp_id="E10b",
    artifact="BENCH_e10_backend_sweep.json",
    headers=("topology", "n", "backend", "time (s)", "peak MB",
             "dense matrix MB", "peak / dense matrix", "copies",
             "matches dense"),
    columns={
        "topology": "str", "n": "number", "backend": "str",
        "time (s)": "number", "peak MB": "number",
        "dense matrix MB": "number", "peak / dense matrix": "number",
        "copies": "number", "matches dense": "bool?",
    },
    checks=(
        Check("lazy placements match dense", "matches dense", "is_true"),
        Check("lazy peak memory beats the dense closure at scale",
              "peak / dense matrix", "min_le", value=0.3, rel_tol=TIME_BAND,
              where=(("backend", "lazy"),), tiers=("artifact",)),
    ),
    smoke_params=dict(sizes=[40, 70], dense_limit=4000, seed=7),
))

_register(GateSpec(
    experiment="E14",
    exp_id="E14",
    artifact="BENCH_e14_catalog.json",
    headers=("mode", "objects", "n", "time (s)", "objects/s",
             "speedup vs loop", "total copies", "matches loop"),
    columns={
        "mode": "str", "objects": "number", "n": "number",
        "time (s)": "number", "objects/s": "number",
        "speedup vs loop": "number?", "total copies": "number",
        "matches loop": "bool?",
    },
    checks=(
        Check("every mode places the loop's copy sets", "matches loop",
              "is_true"),
        Check("serial engine >= 5x over the per-object loop",
              "speedup vs loop", "ge", value=5.0, rel_tol=TIME_BAND,
              where=(("mode", "engine serial"),), tiers=("artifact",)),
    ),
    smoke_params=dict(num_objects=48, n=60, chunk_size=16, jobs=[2],
                      compare_loop=True),
))

_register(GateSpec(
    experiment="E15",
    exp_id="E15",
    artifact="BENCH_e15_dynamic.json",
    headers=("section", "label", "events", "time (s)", "speedup",
             "total cost", "vs static", "agrees"),
    columns={
        "section": "str", "label": "str", "events": "number",
        "time (s)": "number?", "speedup": "number?",
        "total cost": "number", "vs static": "number?", "agrees": "bool?",
    },
    checks=(
        Check("vectorized replay bills the hop-by-hop amount", "agrees",
              "is_true", where=(("label", "vectorized"),)),
        Check("clairvoyant-static is its own baseline", "vs static",
              "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("label", "clairvoyant-static"),)),
        Check("epoch-replan bills a positive total", "total cost", "gt",
              value=0.0, where=(("label", "epoch-replan"),)),
        Check("vectorized replay >= 10x over hop-by-hop", "speedup", "ge",
              value=10.0, rel_tol=TIME_BAND,
              where=(("label", "vectorized"),), tiers=("artifact",)),
        Check("trajectory covers >= 10k events", "events", "ge",
              value=10_000.0, where=(("label", "vectorized"),),
              tiers=("artifact",)),
    ),
    smoke_params=dict(n=40, num_objects=6, epochs=3, requests_per_epoch=200,
                      compare_loop=True),
))

_register(GateSpec(
    experiment="E16",
    exp_id="E16",
    artifact="BENCH_e16_incremental.json",
    headers=("workload", "backend", "mode", "tolerance", "replaced/epoch",
             "epoch solve (s)", "speedup", "total cost", "vs full",
             "identical"),
    columns={
        "workload": "str", "backend": "str", "mode": "str",
        "tolerance": "number?", "replaced/epoch": "number",
        "epoch solve (s)": "number", "speedup": "number",
        "total cost": "number", "vs full": "number", "identical": "bool?",
    },
    checks=(
        Check("tolerance-0 incremental is bit-identical to full",
              "identical", "is_true",
              where=(("mode", "incremental"), ("tolerance", 0.0))),
        Check("tolerance-0 incremental bill equals the full bill",
              "vs full", "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("mode", "incremental"), ("tolerance", 0.0))),
        Check("incremental replan skips clean objects",
              "replaced/epoch", "le", value=24.0,
              where=(("mode", "incremental"), ("tolerance", 0.0)),
              tiers=("artifact",)),
        Check("incremental replan skips clean objects (smoke)",
              "replaced/epoch", "le", value=4.0,
              where=(("mode", "incremental"), ("tolerance", 0.0)),
              tiers=("smoke",)),
        Check("drifting-zipf incremental >= 5x per-epoch solve speedup",
              "speedup", "ge", value=5.0, rel_tol=TIME_BAND,
              where=(("workload", "drifting_zipf"), ("mode", "incremental"),
                     ("tolerance", 0.0)),
              tiers=("artifact",)),
    ),
    smoke_params=dict(n=40, num_objects=6, epochs=3, requests_per_epoch=240,
                      drift=0.34, tolerance=0.05, backends=["dense"],
                      scenarios=["drift"]),
))

_register(GateSpec(
    experiment="E18",
    exp_id="E18",
    artifact="BENCH_e18_sharded.json",
    headers=("n", "backend", "mode", "shards", "portals", "time (s)",
             "total cost", "vs global", "identical", "admissible"),
    columns={
        "n": "number", "backend": "str", "mode": "str",
        "shards": "number?", "portals": "number?", "time (s)": "number",
        "total cost": "number", "vs global": "number?",
        "identical": "bool?", "admissible": "bool?",
    },
    checks=(
        Check("num_shards=1 reproduces the global copy sets bit-for-bit",
              "identical", "is_true", where=(("mode", "sharded k=1"),)),
        Check("the degenerate path's cost ratio is exactly 1",
              "vs global", "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("mode", "sharded k=1"),)),
        Check("portal-routed distances never undercut the true metric",
              "admissible", "is_true", where=(("mode", "sharded"),)),
        Check("sharded cost stays within 1.25x of the global solve",
              "vs global", "le", value=1.25,
              where=(("mode", "sharded"),)),
    ),
    smoke_params=dict(sizes=[120], sharded_only_sizes=[], num_objects=8,
                      num_shards=3, portals_per_shard=2,
                      admissibility_sample=24),
))

_register(GateSpec(
    experiment="E19",
    exp_id="E19",
    artifact="BENCH_e19_daemon.json",
    headers=("section", "label", "backend", "epochs", "replans",
             "replaced/epoch", "lookups", "mean lookup (ms)", "total cost",
             "vs replanner", "identical", "consistent"),
    columns={
        "section": "str", "label": "str", "backend": "str",
        "epochs": "number", "replans": "number",
        "replaced/epoch": "number", "lookups": "number?",
        "mean lookup (ms)": "number?", "total cost": "number",
        "vs replanner": "number?", "identical": "bool?",
        "consistent": "bool?",
    },
    checks=(
        Check("tolerance-0 daemon reproduces the replanner's placements",
              "identical", "is_true", where=(("section", "parity"),)),
        Check("tolerance-0 daemon bill equals the replanner bill",
              "vs replanner", "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("section", "parity"),)),
        Check("lookups during live replans never observe a mixed generation",
              "consistent", "is_true", where=(("section", "latency"),)),
        Check("consistency verdicts rest on real lookups",
              "lookups", "gt", value=0.0, where=(("section", "latency"),)),
        Check("drifting demand keeps triggering background replans",
              "replans", "gt", value=0.0, where=(("section", "lag"),)),
    ),
    smoke_params=dict(n=40, num_objects=6, epochs=3, requests_per_epoch=240,
                      drift=0.34, backends=["dense"],
                      lag_drifts=[0.34, 0.67], lookups=60),
))

_register(GateSpec(
    experiment="E20",
    exp_id="E20",
    artifact="BENCH_e20_costmodels.json",
    headers=("section", "label", "model", "total cost", "storage", "read",
             "update", "vs krw", "accepted", "rejected", "identical"),
    columns={
        "section": "str", "label": "str", "model": "str",
        "total cost": "number", "storage": "number", "read": "number",
        "update": "number", "vs krw": "number?", "accepted": "number?",
        "rejected": "number?", "identical": "bool?",
    },
    checks=(
        Check("krw seam bills match the legacy accounting bit-for-bit",
              "identical", "is_true", where=(("section", "parity"),)),
        Check("krw seam totals equal legacy totals",
              "vs krw", "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("section", "parity"),)),
        Check("uncapped admission equals the krw request bill",
              "vs krw", "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("label", "uncapped"),)),
        Check("uncapped admission rejects nothing",
              "rejected", "approx", value=0.0,
              where=(("label", "uncapped"),)),
        Check("capacity pressure rejects some reads",
              "rejected", "gt", value=0.0, where=(("label", "capped"),)),
        Check("capacity pressure still serves reads",
              "accepted", "gt", value=0.0, where=(("label", "capped"),)),
        Check("capped admission never bills more than krw",
              "vs krw", "le", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("label", "capped"),)),
        Check("admission plan keeps the krw placement",
              "identical", "is_true", where=(("section", "admission"),)),
        Check("end-to-end admission bill equals krw (uncapped default)",
              "vs krw", "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("label", "plan admission"),)),
        Check("broadcast plan keeps the krw placement",
              "identical", "is_true", where=(("section", "broadcast"),)),
        Check("broadcast never bills more than krw",
              "vs krw", "le", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("label", "plan broadcast"),)),
        Check("broadcast equals krw on read-only demand",
              "vs krw", "approx", value=1.0, rel_tol=IDENTITY_TOL,
              where=(("label", "read-only"),)),
    ),
    smoke_params=dict(n=40, num_objects=6, backends=["dense"], slots=3),
))

#: Default artifact location: the committed benchmarks directory.
DEFAULT_ARTIFACT_DIR = Path(__file__).resolve().parents[3] / "benchmarks"


# ----------------------------------------------------------------------
def run_gate(
    *,
    tier: str = "smoke",
    artifact_dir=None,
    store: TrialStore | None = None,
    only=None,
    jobs: int = 1,
    generated_at: str | None = None,
    progress=None,
) -> GateReport:
    """Check every gated experiment; returns the full report.

    ``tier="artifact"`` only validates the committed artifacts;
    ``tier="smoke"`` additionally runs each gate's budgeted smoke trial
    through the harness (cached in ``store`` when given) and applies
    the scale-free checks to the fresh result.  ``only`` restricts the
    run to a subset of experiment ids.
    """
    if tier not in ("artifact", "smoke"):
        raise ValueError(f"unknown gate tier {tier!r}; use 'artifact' or 'smoke'")
    artifact_dir = Path(
        DEFAULT_ARTIFACT_DIR if artifact_dir is None else artifact_dir
    )
    say = progress if progress is not None else (lambda _msg: None)
    wanted = (
        list(GATES) if not only
        else [name.upper() for name in only]
    )
    unknown = sorted(set(wanted) - set(GATES))
    if unknown:
        raise ValueError(
            f"no gate for experiment(s) {unknown}; gated: {', '.join(GATES)}"
        )

    report = GateReport()
    smoke_specs: list[GateSpec] = []
    for name in wanted:
        spec = GATES[name]
        path = artifact_dir / spec.artifact
        if not path.is_file():
            report.findings.append(Finding(
                spec.exp_id, "artifact", "artifact present", False,
                f"{path} is missing; re-run the benchmark to regenerate it",
                missing_artifact=True,
            ))
            continue
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            report.findings.append(Finding(
                spec.exp_id, "artifact", "artifact parses", False, str(exc)
            ))
            continue
        say(f"{spec.exp_id}: checking {spec.artifact}")
        report.findings.extend(check_payload(spec, payload, "artifact"))
        smoke_specs.append(spec)

    if tier == "smoke" and smoke_specs:
        store = store if store is not None else TrialStore(".repro-bench")
        trials = [spec.smoke_trial() for spec in smoke_specs]
        outcomes = run_sweep(
            trials, store, jobs=jobs, generated_at=generated_at,
            progress=progress,
        )
        for spec, outcome in zip(smoke_specs, outcomes):
            say(f"{spec.exp_id}: smoke trial {outcome.status}")
            report.findings.extend(
                check_payload(spec, outcome.record.result, "smoke")
            )
    return report


def mutate_payload(payload: dict, row: int, column_index: int, value) -> dict:
    """A deep copy of ``payload`` with one cell replaced -- the helper
    the golden tests use to prove the gate fails on perturbed artifacts."""
    clone = json.loads(json.dumps(payload))
    clone["rows"][row][column_index] = value
    return clone
