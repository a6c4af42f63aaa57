"""Declarative fault packs: one document, one complete campaign.

A *fault pack* is a single YAML/JSON document that declares everything a
dependability benchmark needs — the target and workload, the fault model
and injection strategy, the environment simulator (with optional
environment-boundary faults), how many experiments to sample (directly
or via a confidence-interval precision goal), and the *expected
dependability bounds* the measured results must satisfy (a coverage CI
floor, latency percentile ceilings, a critical-failure budget).

Packs make campaigns reviewable artefacts: checked into a repository,
diffed in code review, and replayed by ``goofi run --pack`` /
``goofi gate`` as a CI regression guard.  The schema is validated
eagerly — every malformed section raises :class:`ConfigurationError`
naming the offending payload — and ``FaultPack.from_dict(p.to_dict())``
round-trips exactly.

Example document::

    pack: control-dcmotor
    description: DC-motor control loop under register faults
    campaign:
      target: thor-rd-sim          # optional; the default
      technique: scifi
      workload: control_unprotected
      locations: [internal:regs.*]
      fault_model: {model: transient_bitflip}
      seed: 42
    environment:
      name: dc_motor
      sensor_symbol: sensor
      actuator_symbol: actuator
      faults: {drop_probability: 0.02, seed: 7}
    sample_plan:
      half_width: 0.05
      confidence: 0.95
    bounds:
      min_coverage: 0.40
      coverage_basis: ci_low
      max_latency: {p95: 40000}
      max_critical_failures: 3
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .campaign import (
    LOGGING_DETAIL,
    LOGGING_NORMAL,
    MULTIPLICITY_ADJACENT,
    MULTIPLICITY_INDEPENDENT,
    _TIME_STRATEGIES,
    CampaignConfig,
)
from .errors import ConfigurationError
from .faultmodels import FaultModel, TransientBitFlip, model_from_dict
from .plugins import (
    THOR_RD,
    registered_environments,
    registered_targets,
    registered_techniques,
)

#: Latency-bound keys accepted in ``bounds.max_latency`` and how each is
#: read off a :class:`repro.analysis.latency.LatencyStatistics`.
LATENCY_KEYS = ("p50", "p90", "p95", "p99", "mean", "max")


def _require_mapping(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a mapping, got {data!r}")
    return data


def _reject_unknown(data: dict, known: set[str], what: str) -> None:
    unexpected = sorted(set(data) - known)
    if unexpected:
        raise ConfigurationError(
            f"{what} has unknown key(s) {', '.join(unexpected)} in payload "
            f"{data!r}; accepted: {', '.join(sorted(known))}"
        )


# ----------------------------------------------------------------------
# Sample plan
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SamplePlan:
    """How many experiments the pack's campaign runs.

    Either a direct ``experiments`` count, or a statistical goal: run
    however many experiments bound the coverage CI half-width to
    ``half_width`` at ``confidence`` (sized with
    :func:`repro.analysis.samplesize.required_experiments`, worst-case
    ``expected_proportion`` by default)."""

    experiments: int | None = None
    half_width: float | None = None
    confidence: float = 0.95
    expected_proportion: float = 0.5

    def __post_init__(self) -> None:
        if (self.experiments is None) == (self.half_width is None):
            raise ConfigurationError(
                "sample_plan needs exactly one of 'experiments' and "
                f"'half_width', got {self.to_dict()!r}"
            )
        if self.experiments is not None and self.experiments <= 0:
            raise ConfigurationError(
                f"sample_plan experiments must be positive, not {self.experiments}"
            )
        # Same bounds required_experiments() enforces, checked here so a
        # bad pack fails at load time instead of mid-run at resolve().
        if self.half_width is not None and not 0.0 < self.half_width < 0.5:
            raise ConfigurationError(
                f"sample_plan half_width must be in (0, 0.5), not {self.half_width}"
            )
        for name in ("confidence", "expected_proportion"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigurationError(
                    f"sample_plan {name} must be in (0, 1), not {value}"
                )

    def resolve(self) -> int:
        """The concrete experiment count."""
        if self.experiments is not None:
            return self.experiments
        from ..analysis.samplesize import required_experiments

        return required_experiments(
            half_width=self.half_width,
            confidence=self.confidence,
            expected_proportion=self.expected_proportion,
        )

    def to_dict(self) -> dict:
        data: dict = {}
        if self.experiments is not None:
            data["experiments"] = self.experiments
        if self.half_width is not None:
            data["half_width"] = self.half_width
            data["confidence"] = self.confidence
            data["expected_proportion"] = self.expected_proportion
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SamplePlan":
        data = _require_mapping(data, "sample_plan")
        _reject_unknown(
            data,
            {"experiments", "half_width", "confidence", "expected_proportion"},
            "sample_plan",
        )
        experiments = data.get("experiments")
        half_width = data.get("half_width")
        return cls(
            experiments=int(experiments) if experiments is not None else None,
            half_width=float(half_width) if half_width is not None else None,
            confidence=float(data.get("confidence", 0.95)),
            expected_proportion=float(data.get("expected_proportion", 0.5)),
        )


# ----------------------------------------------------------------------
# Dependability bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class DependabilityBounds:
    """The pack's expected dependability envelope; ``goofi gate`` fails
    when any measured result falls outside it.

    * ``min_coverage`` — floor on error-detection coverage.  Compared
      against the Clopper–Pearson CI lower bound (``coverage_basis:
      ci_low``, the conservative default) or the point estimate
      (``estimate``).
    * ``max_latency`` — ceilings in cycles per detection-latency
      statistic (keys from :data:`LATENCY_KEYS`).
    * ``max_critical_failures`` — budget of experiments whose replayed
      actuator sequence violates the plant's safety envelope (or that
      timed out); needs the pack to declare an environment.
    """

    min_coverage: float | None = None
    coverage_basis: str = "ci_low"
    max_latency: dict = field(default_factory=dict)
    max_critical_failures: int | None = None

    def __post_init__(self) -> None:
        if self.min_coverage is not None and not 0.0 <= self.min_coverage <= 1.0:
            raise ConfigurationError(
                f"min_coverage must be in [0, 1], not {self.min_coverage!r}"
            )
        if self.coverage_basis not in ("ci_low", "estimate"):
            raise ConfigurationError(
                f"coverage_basis must be 'ci_low' or 'estimate', "
                f"not {self.coverage_basis!r}"
            )
        bad = sorted(set(self.max_latency) - set(LATENCY_KEYS))
        if bad:
            raise ConfigurationError(
                f"max_latency has unknown statistic(s) {', '.join(bad)}; "
                f"accepted: {', '.join(LATENCY_KEYS)}"
            )
        for key, ceiling in self.max_latency.items():
            if not isinstance(ceiling, (int, float)) or ceiling <= 0:
                raise ConfigurationError(
                    f"max_latency {key} ceiling must be a positive number, "
                    f"not {ceiling!r}"
                )
        if self.max_critical_failures is not None and self.max_critical_failures < 0:
            raise ConfigurationError(
                f"max_critical_failures must be >= 0, "
                f"not {self.max_critical_failures!r}"
            )

    @property
    def empty(self) -> bool:
        return (
            self.min_coverage is None
            and not self.max_latency
            and self.max_critical_failures is None
        )

    def to_dict(self) -> dict:
        data: dict = {}
        if self.min_coverage is not None:
            data["min_coverage"] = self.min_coverage
            data["coverage_basis"] = self.coverage_basis
        if self.max_latency:
            data["max_latency"] = dict(self.max_latency)
        if self.max_critical_failures is not None:
            data["max_critical_failures"] = self.max_critical_failures
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DependabilityBounds":
        data = _require_mapping(data, "bounds")
        _reject_unknown(
            data,
            {"min_coverage", "coverage_basis", "max_latency", "max_critical_failures"},
            "bounds",
        )
        min_coverage = data.get("min_coverage")
        max_critical = data.get("max_critical_failures")
        return cls(
            min_coverage=float(min_coverage) if min_coverage is not None else None,
            coverage_basis=data.get("coverage_basis", "ci_low"),
            max_latency=dict(
                _require_mapping(data.get("max_latency", {}), "bounds max_latency")
            ),
            max_critical_failures=(
                int(max_critical) if max_critical is not None else None
            ),
        )


# ----------------------------------------------------------------------
# The pack itself
# ----------------------------------------------------------------------
_CAMPAIGN_KEYS = {
    "target",
    "technique",
    "workload",
    "locations",
    "fault_model",
    "flips_per_experiment",
    "multiplicity_model",
    "time_strategy",
    "injection_window",
    "clock_period",
    "logging",
    "detail_period",
    "seed",
    "preinjection",
    "max_cycles",
    "max_iterations",
}

_ENVIRONMENT_KEYS = {
    "name",
    "params",
    "sensor_symbol",
    "actuator_symbol",
    "faults",
}


@dataclass(frozen=True, slots=True)
class FaultPack:
    """One validated fault-pack document (see the module docstring)."""

    name: str
    campaign: dict
    description: str = ""
    environment: dict | None = None
    sample_plan: SamplePlan = field(
        default_factory=lambda: SamplePlan(experiments=100)
    )
    bounds: DependabilityBounds = field(default_factory=DependabilityBounds)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"pack name must be a non-empty string, not {self.name!r}")
        campaign = _require_mapping(self.campaign, "pack campaign section")
        _reject_unknown(campaign, _CAMPAIGN_KEYS, "pack campaign section")
        for required in ("technique", "workload", "locations"):
            if required not in campaign:
                raise ConfigurationError(
                    f"pack campaign section {campaign!r} is missing "
                    f"required key {required!r}"
                )
        if self.target not in registered_targets():
            raise ConfigurationError(
                f"pack declares unknown target {self.target!r}; "
                f"registered: {', '.join(registered_targets())}"
            )
        technique = campaign["technique"]
        if technique not in registered_techniques():
            raise ConfigurationError(
                f"pack declares unknown technique {technique!r}; "
                f"registered: {', '.join(registered_techniques())}"
            )
        locations = campaign["locations"]
        if not isinstance(locations, (list, tuple)) or not locations or not all(
            isinstance(p, str) for p in locations
        ):
            raise ConfigurationError(
                f"pack locations must be a non-empty list of patterns, "
                f"not {locations!r}"
            )
        self.fault_model()  # validates the payload
        strategy = campaign.get("time_strategy", "uniform")
        if strategy not in _TIME_STRATEGIES:
            raise ConfigurationError(
                f"pack declares unknown time_strategy {strategy!r}; "
                f"accepted: {', '.join(_TIME_STRATEGIES)}"
            )
        logging_mode = campaign.get("logging", LOGGING_NORMAL)
        if logging_mode not in (LOGGING_NORMAL, LOGGING_DETAIL):
            raise ConfigurationError(
                f"pack declares unknown logging mode {logging_mode!r}"
            )
        multiplicity = campaign.get("multiplicity_model", MULTIPLICITY_INDEPENDENT)
        if multiplicity not in (MULTIPLICITY_INDEPENDENT, MULTIPLICITY_ADJACENT):
            raise ConfigurationError(
                f"pack declares unknown multiplicity_model {multiplicity!r}"
            )
        if self.environment is not None:
            environment = _require_mapping(self.environment, "pack environment section")
            _reject_unknown(environment, _ENVIRONMENT_KEYS, "pack environment section")
            env_name = environment.get("name")
            if env_name not in registered_environments():
                raise ConfigurationError(
                    f"pack declares unknown environment {env_name!r}; "
                    f"registered: {', '.join(registered_environments())}"
                )
            faults = environment.get("faults")
            if faults is not None:
                from ..workloads.envsim import EnvFaultConfig

                try:
                    EnvFaultConfig.from_dict(faults)
                except ValueError as exc:
                    raise ConfigurationError(str(exc)) from exc
        if self.bounds.max_critical_failures is not None and self.environment is None:
            raise ConfigurationError(
                "pack bounds declare max_critical_failures but the pack has "
                "no environment section to replay the plant from"
            )

    # ------------------------------------------------------------------
    @property
    def target(self) -> str:
        """The target the pack's campaign runs on (``thor-rd-sim`` when
        the campaign section names none)."""
        return self.campaign.get("target", THOR_RD)

    def fault_model(self) -> FaultModel:
        payload = self.campaign.get("fault_model")
        if payload is None:
            return TransientBitFlip()
        return model_from_dict(payload)

    def to_dict(self) -> dict:
        data: dict = {
            "pack": self.name,
            "campaign": dict(self.campaign),
            "sample_plan": self.sample_plan.to_dict(),
        }
        if self.description:
            data["description"] = self.description
        if self.environment is not None:
            data["environment"] = dict(self.environment)
        bounds = self.bounds.to_dict()
        if bounds:
            data["bounds"] = bounds
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPack":
        data = _require_mapping(data, "fault pack document")
        _reject_unknown(
            data,
            {"pack", "description", "campaign", "environment", "sample_plan", "bounds"},
            "fault pack document",
        )
        if "pack" not in data:
            raise ConfigurationError(
                f"fault pack document {data!r} is missing the 'pack' name key"
            )
        if "campaign" not in data:
            raise ConfigurationError(
                f"fault pack {data.get('pack')!r} is missing its campaign section"
            )
        sample_plan = (
            SamplePlan.from_dict(data["sample_plan"])
            if "sample_plan" in data
            else SamplePlan(experiments=100)
        )
        bounds = (
            DependabilityBounds.from_dict(data["bounds"])
            if "bounds" in data
            else DependabilityBounds()
        )
        return cls(
            name=data["pack"],
            description=data.get("description", ""),
            campaign=dict(data["campaign"]),
            environment=(
                dict(data["environment"]) if data.get("environment") is not None else None
            ),
            sample_plan=sample_plan,
            bounds=bounds,
        )

    # ------------------------------------------------------------------
    def resolve_campaign(self, session, name: str | None = None) -> CampaignConfig:
        """Derive the concrete :class:`CampaignConfig` this pack
        describes, using ``session`` (a
        :class:`repro.session.GoofiSession` on the pack's
        :attr:`target`) to size the watchdog budget, choose the
        observation selection, and resolve environment symbol names to
        addresses."""
        if session.target.target_name != self.target:
            raise ConfigurationError(
                f"pack {self.name!r} runs on target {self.target!r}, but the "
                f"session is on {session.target.target_name!r}"
            )
        campaign = self.campaign
        workload = campaign["workload"]
        max_cycles = campaign.get("max_cycles")
        max_iterations = campaign.get("max_iterations")
        if max_cycles is not None:
            from .framework import Termination

            termination = Termination(
                max_cycles=int(max_cycles),
                max_iterations=int(max_iterations) if max_iterations is not None else None,
            )
        else:
            termination = session.default_termination(
                workload, max_iterations=int(max_iterations or 200)
            )
        observation = session.default_observation(workload)
        environment = None
        if self.environment is not None:
            params = dict(self.environment.get("params") or {})
            sensor_symbol = self.environment.get("sensor_symbol")
            actuator_symbol = self.environment.get("actuator_symbol")
            if sensor_symbol:
                params["sensor_addr"] = session.workload_symbol(workload, sensor_symbol)
            if actuator_symbol:
                params["actuator_addr"] = session.workload_symbol(
                    workload, actuator_symbol
                )
            environment = {"name": self.environment["name"], "params": params}
            faults = self.environment.get("faults")
            if faults is not None:
                environment["faults"] = dict(faults)
        window = campaign.get("injection_window")
        return CampaignConfig(
            name=name or self.name,
            target=self.target,
            technique=campaign["technique"],
            workload=workload,
            location_patterns=tuple(campaign["locations"]),
            num_experiments=self.sample_plan.resolve(),
            termination=termination,
            observation=observation,
            fault_model=self.fault_model(),
            flips_per_experiment=int(campaign.get("flips_per_experiment", 1)),
            multiplicity_model=campaign.get(
                "multiplicity_model", MULTIPLICITY_INDEPENDENT
            ),
            time_strategy=campaign.get("time_strategy", "uniform"),
            injection_window=tuple(window) if window is not None else None,
            clock_period=int(campaign.get("clock_period", 100)),
            logging_mode=campaign.get("logging", LOGGING_NORMAL),
            detail_period=int(campaign.get("detail_period", 1)),
            seed=int(campaign.get("seed", 1)),
            use_preinjection_analysis=bool(campaign.get("preinjection", False)),
            environment=environment,
        )


def replay_function(environment: dict | None):
    """The plant replay function for an environment configuration.

    The analysis layer judges ``max_critical_failures`` by replaying
    logged actuator sequences through the plant model, but it never
    imports plant code itself — this resolver bridges the layers: pass
    its result as ``replay`` to :func:`repro.analysis.gates.evaluate_gate`.
    """
    from ..workloads.envsim import REPLAY_FUNCTIONS

    name = (environment or {}).get("name")
    replay = REPLAY_FUNCTIONS.get(name)
    if replay is None:
        raise ConfigurationError(
            f"no replay model for environment {name!r}; "
            f"known: {', '.join(sorted(REPLAY_FUNCTIONS))}"
        )
    return replay


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def loads_pack(text: str, source: str = "<string>") -> FaultPack:
    """Parse a pack from YAML or JSON text."""
    try:
        import yaml

        data = yaml.safe_load(text)
    except ImportError:  # pragma: no cover - PyYAML ships with the toolchain
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"cannot parse pack {source}: PyYAML unavailable and not JSON ({exc})"
            ) from None
    except Exception as exc:
        raise ConfigurationError(f"cannot parse pack {source}: {exc}") from None
    return FaultPack.from_dict(data)


def load_pack(path: str | Path) -> FaultPack:
    """Load and validate a pack document from a ``.yaml``/``.yml``/
    ``.json`` file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read pack {path}: {exc}") from None
    return loads_pack(text, source=str(path))


def save_pack(pack: FaultPack, path: str | Path) -> None:
    """Serialise a pack to YAML (or JSON for ``.json`` paths)."""
    path = Path(path)
    data = pack.to_dict()
    if path.suffix == ".json":
        path.write_text(json.dumps(data, indent=2) + "\n")
        return
    import yaml

    path.write_text(yaml.safe_dump(data, sort_keys=False))
