"""Declarative alert rules evaluated over live registry snapshots.

The paper's §5.4 argument is that a measurement must be validated *while
it runs*; this module is the operational version of that stance. An
:class:`AlertRules` engine holds a list of declarative
:class:`AlertRule` thresholds and is handed each periodic registry
snapshot by the :class:`~repro.obs.export.TelemetryExporter`. Rules can
watch a raw value, a per-second rate, a ratio of two metrics, or
staleness (a metric that has stopped advancing — the live analogue of a
validator that never converges). Transitions produce structured
:class:`AlertEvent` records that land in the exporter's snapshot stream
and (under an active tracer) as ``alert.fired`` / ``alert.resolved``
trace events; the number of currently-firing rules is published as the
``live.alerts_active`` gauge on the exporter's *own* side registry —
never on the monitored registry, whose snapshot digest must stay
byte-identical with and without export enabled.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ObservabilityError
from repro.obs.artifacts import open_artifact, read_json_document
from repro.profiling import trace_event

#: Schema identifier for serialized rule lists.
ALERT_RULES_SCHEMA = "repro.obs.alerts/1"

#: Supported rule kinds (see :class:`AlertRule`).
KINDS = ("value", "rate", "ratio", "stale")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold over a snapshot metric.

    Attributes
    ----------
    name:
        Unique rule name (appears in events and the dashboard).
    metric:
        Snapshot key to watch — either a fully-labeled key as rendered by
        :func:`~repro.obs.metrics.render_key` (``live.wire_errors{role=reflector}``)
        or a bare instrument name, which sums every labeled variant.
        Counters and gauges resolve to their value, series to their last
        sample, histograms to their observation count.
    kind:
        ``"value"`` compares the metric directly; ``"rate"`` compares its
        per-second increase between evaluations; ``"ratio"`` divides it
        by ``denominator`` (0/0 counts as 0); ``"stale"`` fires when the
        metric has not changed for more than ``threshold`` seconds of
        wall time (``op`` is ignored) — e.g. a validator that stopped
        making progress before its convergence deadline.
    op / threshold:
        Comparison applied to the derived quantity; the rule breaches
        when ``op(quantity, threshold)`` is true.
    denominator:
        Second metric for ``ratio`` rules (same addressing as ``metric``).
    for_intervals:
        Consecutive breaching evaluations required before the rule fires
        (debounce; 1 = fire immediately).
    severity / description:
        Carried verbatim into events and the exposition.
    """

    name: str
    metric: str
    kind: str = "value"
    op: str = ">"
    threshold: float = 0.0
    denominator: Optional[str] = None
    for_intervals: int = 1
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.metric:
            raise ObservabilityError("alert rule needs a name and a metric")
        if self.kind not in KINDS:
            raise ObservabilityError(
                f"alert rule {self.name!r}: kind must be one of {KINDS}, "
                f"got {self.kind!r}"
            )
        if self.op not in _OPS:
            raise ObservabilityError(
                f"alert rule {self.name!r}: op must be one of {sorted(_OPS)}, "
                f"got {self.op!r}"
            )
        if self.kind == "ratio" and not self.denominator:
            raise ObservabilityError(
                f"alert rule {self.name!r}: ratio rules need a denominator"
            )
        if self.for_intervals < 1:
            raise ObservabilityError(
                f"alert rule {self.name!r}: for_intervals must be >= 1"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "kind": self.kind,
            "op": self.op,
            "threshold": self.threshold,
            "denominator": self.denominator,
            "for_intervals": self.for_intervals,
            "severity": self.severity,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "AlertRule":
        if not isinstance(raw, dict):
            raise ObservabilityError(
                f"alert rule: expected an object, got {type(raw).__name__}"
            )
        known = {
            "name", "metric", "kind", "op", "threshold", "denominator",
            "for_intervals", "severity", "description",
        }
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ObservabilityError(
                f"alert rule {raw.get('name', '?')!r}: unknown fields {unknown}"
            )
        return cls(**raw)


@dataclass
class AlertEvent:
    """One firing/resolved transition, emitted into the snapshot stream."""

    rule: str
    state: str  #: ``"firing"`` or ``"resolved"``
    value: Optional[float]
    threshold: float
    wall: float
    severity: str = "warning"
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "wall": self.wall,
            "severity": self.severity,
            "description": self.description,
        }


@dataclass
class _RuleState:
    """Mutable evaluation state the engine keeps per rule."""

    firing: bool = False
    breaches: int = 0
    last_value: Optional[float] = None
    last_wall: Optional[float] = None
    #: For stale rules: wall time of the last observed change.
    last_change_wall: Optional[float] = None
    fired_wall: Optional[float] = None
    events: int = 0


def lookup_metric(snapshot: Dict[str, Any], metric: str) -> Optional[float]:
    """Resolve a metric address against a snapshot document.

    A fully-labeled key is looked up exactly; a bare name sums every
    variant whose key is the name or ``name{...}``. Returns None when the
    metric does not exist (rules treat missing metrics as non-breaching).
    """
    exact = "{" in metric

    def scan(section: Dict[str, Any], extract) -> Optional[float]:
        if exact or metric in section:
            entry = section.get(metric)
            return None if entry is None else extract(entry)
        total: Optional[float] = None
        prefix = metric + "{"
        for key, entry in section.items():
            if key == metric or key.startswith(prefix):
                value = extract(entry)
                if value is not None:
                    total = value if total is None else total + value
        return total

    found = scan(snapshot.get("counters", {}), lambda v: float(v))
    if found is not None:
        return found
    found = scan(snapshot.get("gauges", {}), lambda g: float(g["value"]))
    if found is not None:
        return found
    found = scan(
        snapshot.get("series", {}),
        lambda s: float(s["values"][-1]) if s.get("values") else None,
    )
    if found is not None:
        return found
    return scan(snapshot.get("histograms", {}), lambda h: float(h.get("count", 0)))


class AlertRules:
    """Evaluate a rule list against successive snapshots, tracking state.

    ``registry`` is the engine's *own* registry (usually the exporter's
    side registry): it receives the ``live.alerts_active`` gauge and
    per-rule ``alerts.events`` counters. Each transition is also an
    ``alert.fired`` / ``alert.resolved`` event of the active tracer.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule] = (),
        registry=None,
    ):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ObservabilityError(f"duplicate alert rule names in {names}")
        self.rules = list(rules)
        self.registry = registry
        self._states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self.events_total = 0

    # ------------------------------------------------------------- evaluation
    def _quantity(
        self, rule: AlertRule, state: _RuleState, snapshot: Dict[str, Any], wall: float
    ) -> Optional[float]:
        value = lookup_metric(snapshot, rule.metric)
        if rule.kind == "value":
            return value
        if rule.kind == "ratio":
            if value is None:
                return None
            denominator = lookup_metric(snapshot, rule.denominator)
            if denominator is None or denominator == 0.0:
                return 0.0 if value == 0.0 else float("inf")
            return value / denominator
        if rule.kind == "rate":
            previous_value, previous_wall = state.last_value, state.last_wall
            state.last_value, state.last_wall = value, wall
            if value is None or previous_value is None or previous_wall is None:
                return None
            elapsed = wall - previous_wall
            if elapsed <= 0.0:
                return None
            return (value - previous_value) / elapsed
        # stale: seconds since the watched value last changed.
        if value is None:
            return None
        if state.last_change_wall is None or value != state.last_value:
            state.last_change_wall = wall
        state.last_value = value
        return wall - state.last_change_wall

    def evaluate(self, snapshot: Dict[str, Any], wall: float) -> List[AlertEvent]:
        """One evaluation pass; returns the firing/resolved transitions."""
        events: List[AlertEvent] = []
        for rule in self.rules:
            state = self._states[rule.name]
            quantity = self._quantity(rule, state, snapshot, wall)
            if quantity is None:
                breach = False
            elif rule.kind == "stale":
                breach = quantity > rule.threshold
            else:
                breach = _OPS[rule.op](quantity, rule.threshold)
            state.breaches = state.breaches + 1 if breach else 0
            if not state.firing and state.breaches >= rule.for_intervals:
                state.firing = True
                state.fired_wall = wall
                events.append(self._transition(rule, "firing", quantity, wall))
            elif state.firing and not breach:
                state.firing = False
                state.fired_wall = None
                events.append(self._transition(rule, "resolved", quantity, wall))
        if self.registry is not None and self.registry.enabled:
            self.registry.gauge("live.alerts_active").set(float(len(self.active)))
        return events

    def _transition(
        self, rule: AlertRule, state: str, value: Optional[float], wall: float
    ) -> AlertEvent:
        event = AlertEvent(
            rule=rule.name,
            state=state,
            value=value,
            threshold=rule.threshold,
            wall=wall,
            severity=rule.severity,
            description=rule.description,
        )
        self._states[rule.name].events += 1
        self.events_total += 1
        if self.registry is not None and self.registry.enabled:
            self.registry.counter("alerts.events", rule=rule.name, state=state).inc()
        trace_event(
            f"alert.{'fired' if state == 'firing' else 'resolved'}",
            rule=rule.name,
            value=value,
            threshold=rule.threshold,
            severity=rule.severity,
        )
        return event

    # --------------------------------------------------------------- inspection
    @property
    def active(self) -> List[str]:
        """Names of currently-firing rules (rule order)."""
        return [rule.name for rule in self.rules if self._states[rule.name].firing]

    def state_document(self) -> List[Dict[str, Any]]:
        """Per-rule state for the ``/sessions`` endpoint and dashboards."""
        return [
            {
                "rule": rule.name,
                "metric": rule.metric,
                "firing": self._states[rule.name].firing,
                "since": self._states[rule.name].fired_wall,
                "events": self._states[rule.name].events,
                "severity": rule.severity,
            }
            for rule in self.rules
        ]


def default_fleet_rules(
    convergence_deadline: float = 30.0,
    rejected_ratio: float = 0.5,
) -> List[AlertRule]:
    """The stock rule set a fleet soak / reflector deployment starts from.

    * ``wire-errors`` — any sustained rate of undecodable datagrams;
    * ``admission-rejected`` — more than ``rejected_ratio`` of HELLOs
      bounced relative to admitted sessions (the fleet is saturated);
    * ``validator-stalled`` — the live running-F̂ series stopped
      advancing for ``convergence_deadline`` seconds while sessions are
      still active (§5.4 validation cannot converge).
    """
    return [
        AlertRule(
            name="wire-errors",
            metric="live.wire_errors",
            kind="rate",
            op=">",
            threshold=0.0,
            severity="critical",
            description="reflector is receiving undecodable datagrams",
        ),
        AlertRule(
            name="admission-rejected",
            metric="live.admission_rejected",
            kind="ratio",
            denominator="live.sessions",
            op=">",
            threshold=rejected_ratio,
            severity="warning",
            description="fleet is bouncing a large share of HELLOs",
        ),
        AlertRule(
            name="validator-stalled",
            metric="live.frequency",
            kind="stale",
            threshold=convergence_deadline,
            severity="warning",
            description="live §5.4 validation stopped making progress",
        ),
    ]


def controller_alert_rules(
    stall_deadline: float = 30.0,
    busy_ratio: float = 0.5,
) -> List[AlertRule]:
    """Alert rules for an adaptive fleet-controller run.

    * ``controller-busy-storm`` — more than ``busy_ratio`` of launches
      bounced on BUSY backpressure (the roster's reflectors are
      saturated and the budget is mostly idling in backoff);
    * ``controller-stalled`` — no session completed for
      ``stall_deadline`` seconds (paths neither converging nor failing);
    * ``controller-failures`` — any session failed outright (non-BUSY).
    """
    return [
        AlertRule(
            name="controller-busy-storm",
            metric="controller.busy_deferred",
            kind="ratio",
            denominator="controller.launches",
            op=">",
            threshold=busy_ratio,
            severity="warning",
            description="most controller launches are bouncing on BUSY",
        ),
        AlertRule(
            name="controller-stalled",
            metric="controller.completions",
            kind="stale",
            threshold=stall_deadline,
            severity="warning",
            description="controller stopped completing sessions",
        ),
        AlertRule(
            name="controller-failures",
            metric="controller.failures",
            kind="value",
            op=">",
            threshold=0.0,
            severity="critical",
            description="a controller-launched session failed outright",
        ),
    ]


def validate_rules_document(document: Any) -> List[str]:
    """Structural validation for a serialized rules file (list of problems)."""
    if not isinstance(document, dict):
        return [f"rules: expected an object, got {type(document).__name__}"]
    problems: List[str] = []
    if document.get("schema") != ALERT_RULES_SCHEMA:
        problems.append(
            f"rules.schema: expected {ALERT_RULES_SCHEMA!r}, got {document.get('schema')!r}"
        )
    rules = document.get("rules")
    if not isinstance(rules, list):
        return problems + ["rules: missing 'rules' list"]
    for index, raw in enumerate(rules):
        try:
            AlertRule.from_dict(raw)
        except (ObservabilityError, TypeError) as exc:
            problems.append(f"rules[{index}]: {exc}")
    return problems


def load_alert_rules(path) -> List[AlertRule]:
    """Read a ``{"schema", "rules": [...]}`` JSON file into rule objects."""
    document = read_json_document(path, "alert rules")
    problems = validate_rules_document(document)
    if problems:
        raise ObservabilityError(
            f"{path} failed validation: " + "; ".join(problems[:5])
        )
    return [AlertRule.from_dict(raw) for raw in document["rules"]]


def write_alert_rules(path, rules: Sequence[AlertRule]) -> None:
    """Serialize a rule list as the JSON document :func:`load_alert_rules` reads."""
    with open_artifact(path, "alert rules") as handle:
        json.dump(
            {
                "schema": ALERT_RULES_SCHEMA,
                "rules": [rule.to_dict() for rule in rules],
            },
            handle,
            indent=2,
        )
        handle.write("\n")
