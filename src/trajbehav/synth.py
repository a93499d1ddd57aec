"""Deterministic generator of labeled ego-relative trajectories.

Templates encode the plain-language reading of the vehicle behavior
taxonomy (overtaking from left/right, straight decelerating, driving away
to left/right, driving in from left/right, straight accelerating, uniformly
straight driving, parallel driving in left/right, stopping, others), plus
generic pedestrian (6) and rider (7) behaviors for class-count parity.

Conventions (also asserted by the per-template predicates in the tests):
  * x is longitudinal ego-relative position (positive = ahead of ego),
    y lateral (negative = LEFT of ego), z height (flat road, ~0),
    d the heading angle vs. the road centerline in radians.
  * Frames are DT = 0.1 s apart (BLVD's 10 Hz).
  * The ego drives at EGO_SPEED; an agent stopped in the world frame
    therefore has relative longitudinal speed -EGO_SPEED.
  * The overtaking templates include a mid-pass glide phase whose windows
    intentionally resemble the parallel-driving templates on the same side
    (OFL~PDIL, OFR~PDIR); every other class pair is designed to be
    nearest-neighbor separable at zero noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Trajectory, normalize_angle
from .errors import ConfigError
from .rng import SYNTH, seeded_rng

EGO_SPEED = 10.0        # m/s
DT = 0.1                # s, the frame period
NOISE_SIGMA = (0.05, 0.05, 0.01, 0.02)   # per channel x,y,z,d


@dataclass(frozen=True)
class BehaviorTemplate:
    name: str
    agent_kind: str
    profile: str                     # kinematic law key
    params: dict = field(default_factory=dict)   # name -> (lo, hi) or constant


def _t(name, kind, profile, **params):
    return BehaviorTemplate(name=name, agent_kind=kind, profile=profile, params=params)


# Parameter ranges keep within-class draws tight and class bands apart so
# that (except for the designed overtake/parallel pairs) zero-noise windows
# are nearest-neighbor separable.
TEMPLATES = {}
for _tpl in [
    # --- vehicles (13) ---
    _t("OFL", "vehicle", "pass", side=-1, x0=(-2.6, -2.0), v_app=(2.2, 3.0),
       v_glide=(-0.05, 0.15), glide_steps=(4, 6), glide_start=(-1.2, -0.8),
       lane=(3.2, 3.8)),
    _t("OFR", "vehicle", "pass", side=+1, x0=(-2.6, -2.0), v_app=(2.2, 3.0),
       v_glide=(-0.05, 0.15), glide_steps=(4, 6), glide_start=(-1.2, -0.8),
       lane=(3.2, 3.8)),
    _t("SD", "vehicle", "decelerate", x0=(5.2, 6.8), v0=(-0.2, 0.2),
       accel=(-1.2, -0.8), y0=(-0.3, 0.3)),
    _t("DATL", "vehicle", "lane_away", side=-1, x0=(2.5, 4.5), vx=(-0.2, 0.2),
       y_from=(-0.2, 0.2), lane=(3.0, 3.6), rate=(2.5, 3.5), mid=(0.35, 0.55)),
    _t("DATR", "vehicle", "lane_away", side=+1, x0=(2.5, 4.5), vx=(-0.2, 0.2),
       y_from=(-0.2, 0.2), lane=(3.0, 3.6), rate=(2.5, 3.5), mid=(0.35, 0.55)),
    _t("DIFL", "vehicle", "lane_in", side=-1, x0=(2.5, 4.5), vx=(-0.2, 0.2),
       y_to=(-0.2, 0.2), lane=(3.0, 3.6), rate=(2.5, 3.5), mid=(0.35, 0.55)),
    _t("DIFR", "vehicle", "lane_in", side=+1, x0=(2.5, 4.5), vx=(-0.2, 0.2),
       y_to=(-0.2, 0.2), lane=(3.0, 3.6), rate=(2.5, 3.5), mid=(0.35, 0.55)),
    _t("SA", "vehicle", "accelerate", x0=(5.2, 6.8), v0=(0.4, 0.8),
       accel=(0.8, 1.2), y0=(-0.3, 0.3)),
    _t("USD", "vehicle", "uniform", x0=(7.5, 9.5), y0=(-0.3, 0.3)),
    _t("PDIL", "vehicle", "parallel", side=-1, x0=(-1.5, 1.5), vx=(-0.1, 0.1),
       lane=(3.2, 3.8)),
    _t("PDIR", "vehicle", "parallel", side=+1, x0=(-1.5, 1.5), vx=(-0.1, 0.1),
       lane=(3.2, 3.8)),
    _t("S", "vehicle", "stop", x0=(8.0, 12.0), y0=(-0.3, 0.3)),
    _t("O", "vehicle", "weave", x0=(4.0, 7.0), vx=(-0.1, 0.1), y_c=(-0.2, 0.2),
       amp=(1.0, 1.4), period=(0.6, 1.0)),
    # --- pedestrians (6) ---
    _t("PED_CROSS_L", "pedestrian", "cross", x0=(8.0, 12.0), vx=(-10.2, -9.8),
       y0=(-4.5, -3.5), vy=(1.2, 1.6)),
    _t("PED_CROSS_R", "pedestrian", "cross", x0=(8.0, 12.0), vx=(-10.2, -9.8),
       y0=(3.5, 4.5), vy=(-1.6, -1.2)),
    _t("PED_ALONG", "pedestrian", "drift", x0=(8.0, 12.0), vx=(-9.0, -8.4),
       y0=(-4.2, -3.6)),
    _t("PED_COUNTER", "pedestrian", "drift", x0=(8.0, 12.0), vx=(-11.6, -11.0),
       y0=(3.6, 4.2)),
    _t("PED_STAND", "pedestrian", "drift", x0=(8.0, 12.0), vx=-EGO_SPEED,
       y0=(-5.2, -4.6)),
    _t("PED_WANDER", "pedestrian", "weave", x0=(8.0, 12.0), vx=(-10.1, -9.9),
       y_c=(5.4, 6.0), amp=(0.3, 0.5), period=(0.8, 1.2)),
    # --- riders (7) ---
    _t("RIDER_ALONG", "rider", "drift", x0=(6.0, 10.0), vx=(-6.0, -4.0),
       y0=(-2.8, -2.2)),
    _t("RIDER_COUNTER", "rider", "drift", x0=(6.0, 10.0), vx=(-16.0, -14.0),
       y0=(2.2, 2.8)),
    _t("RIDER_CROSS_L", "rider", "cross", x0=(8.0, 12.0), vx=(-10.2, -9.8),
       y0=(-4.4, -3.6), vy=(2.0, 3.0)),
    _t("RIDER_CROSS_R", "rider", "cross", x0=(8.0, 12.0), vx=(-10.2, -9.8),
       y0=(3.6, 4.4), vy=(-3.0, -2.0)),
    _t("RIDER_PASS", "rider", "drift", x0=(-4.0, -2.0), vx=(1.5, 2.5),
       y0=(-2.8, -2.2)),
    _t("RIDER_STOP", "rider", "stop", x0=(8.0, 12.0), y0=(-3.6, -3.0)),
    _t("RIDER_WEAVE", "rider", "weave", x0=(6.0, 9.0), vx=(-5.5, -4.5),
       y_c=(-0.3, 0.3), amp=(0.8, 1.2), period=(0.7, 1.1)),
]:
    TEMPLATES[_tpl.name] = _tpl

VEHICLE_CLASSES = [n for n, t in TEMPLATES.items() if t.agent_kind == "vehicle"]


@dataclass(frozen=True)
class SynthSpec:
    counts: dict                 # class name -> trajectory count
    length: int = 12
    noise: float = 1.0           # global multiplier on template noise sigmas
    seed: int = 0

    def validate(self):
        if self.length < 7:
            raise ConfigError(f"trajectory length must be >= 7, got {self.length}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"noise must be a finite number >= 0, got {self.noise}")
        for name, count in self.counts.items():
            if name not in TEMPLATES:
                raise ConfigError(f"unknown behavior class {name!r}")
            if count < 0:
                raise ConfigError(f"negative count for class {name!r}")


def _draw(rng, value):
    if isinstance(value, tuple):
        lo, hi = value
        return rng.uniform(lo, hi)
    return float(value)


def _draw_params(template, rng):
    out = {}
    for key, value in template.params.items():
        if key == "glide_steps":
            lo, hi = value
            out[key] = int(rng.integers(lo, hi + 1))
        else:
            out[key] = _draw(rng, value)
    if template.profile == "weave":
        out["phase"] = rng.uniform(0.0, 2.0 * math.pi)
    return out


def _path(profile, p, n):
    """Noiseless (x, y) position streams for one trajectory."""
    t = np.arange(n) * DT
    if profile == "uniform":
        return np.full(n, p["x0"]), np.full(n, p["y0"])
    if profile in ("accelerate", "decelerate"):
        x = p["x0"] + p["v0"] * t + 0.5 * p["accel"] * t * t
        return x, np.full(n, p["y0"])
    if profile == "stop":
        return p["x0"] - EGO_SPEED * t, np.full(n, p["y0"])
    if profile == "parallel":
        return p["x0"] + p["vx"] * t, np.full(n, p["side"] * p["lane"])
    if profile == "pass":
        x = np.empty(n)
        x[0] = p["x0"]
        glide_left = p["glide_steps"]
        gliding_started = False
        for i in range(1, n):
            if not gliding_started and x[i - 1] >= p["glide_start"]:
                gliding_started = True
            if gliding_started and glide_left > 0:
                v = p["v_glide"]
                glide_left -= 1
            else:
                v = p["v_app"]
            x[i] = x[i - 1] + v * DT
        return x, np.full(n, p["side"] * p["lane"])
    if profile == "lane_away":
        target = p["side"] * p["lane"]
        mid = p["mid"] * (n - 1) * DT
        sig = 1.0 / (1.0 + np.exp(-p["rate"] * (t - mid)))
        y = p["y_from"] + (target - p["y_from"]) * sig
        return p["x0"] + p["vx"] * t, y
    if profile == "lane_in":
        start = p["side"] * p["lane"]
        mid = p["mid"] * (n - 1) * DT
        sig = 1.0 / (1.0 + np.exp(-p["rate"] * (t - mid)))
        y = start + (p["y_to"] - start) * sig
        return p["x0"] + p["vx"] * t, y
    if profile == "weave":
        y = p["y_c"] + p["amp"] * np.sin(2.0 * math.pi * t / p["period"] + p["phase"])
        return p["x0"] + p["vx"] * t, y
    if profile == "cross":
        return p["x0"] + p["vx"] * t, p["y0"] + p["vy"] * t
    if profile == "drift":
        return p["x0"] + p["vx"] * t, np.full(n, p["y0"])
    raise ConfigError(f"unknown kinematic profile {profile!r}")


def _heading(x, y):
    """Heading vs. road centerline from world-frame velocity components."""
    vx_rel = np.empty_like(x)
    vx_rel[:-1] = np.diff(x) / DT
    vx_rel[-1] = vx_rel[-2]
    vy = np.empty_like(y)
    vy[:-1] = np.diff(y) / DT
    vy[-1] = vy[-2]
    v_world = EGO_SPEED + vx_rel
    speed = np.hypot(v_world, vy)
    d = np.where(speed > 0.05, np.arctan2(vy, v_world), 0.0)
    return d


def _gen_trajectory(template, index, label, spec, rng):
    p = _draw_params(template, rng)
    x, y = _path(template.profile, p, spec.length)
    d = _heading(x, y)
    z = np.zeros(spec.length)
    if spec.noise > 0:
        sx, sy, sz, sd = NOISE_SIGMA
        x = x + rng.normal(0.0, sx * spec.noise, spec.length)
        y = y + rng.normal(0.0, sy * spec.noise, spec.length)
        z = z + rng.normal(0.0, sz * spec.noise, spec.length)
        d = d + rng.normal(0.0, sd * spec.noise, spec.length)
    d = np.array([normalize_angle(v) for v in d], dtype=np.float64)
    return Trajectory(
        agent_id=f"{template.name}-{index:04d}",
        agent_kind=template.agent_kind,
        states=np.column_stack((x, y, z, d)),
        labels=np.full(spec.length, label, dtype=np.int64),
        frames=np.arange(spec.length, dtype=np.int64),
    )


def gen_dataset(spec):
    """Generate (trajectories, class_names); deterministic given spec.seed.

    Classes appear in canonical registry order; every point of a trajectory
    carries its template's class label. Raises ConfigError naming `noise`
    when a generated coordinate is not finite in float32, the precision the
    models train in.
    """
    spec.validate()
    class_names = [n for n in TEMPLATES if n in spec.counts and spec.counts[n] > 0]
    rng = seeded_rng(spec.seed, SYNTH)
    trajectories = []
    for label, name in enumerate(class_names):
        template = TEMPLATES[name]
        for i in range(spec.counts[name]):
            trajectories.append(_gen_trajectory(template, i, label, spec, rng))
    if trajectories:
        with np.errstate(over="ignore"):   # past float32's range becomes inf
            finite = np.isfinite(np.concatenate([t.states for t in trajectories])
                                 .astype(np.float32)).all(axis=1)
        if not finite.all():
            bad = trajectories[int(np.argmin(finite)) // spec.length]
            raise ConfigError(f"noise = {spec.noise:g} gives trajectory {bad.agent_id} "
                              "coordinates that are not finite in float32")
    return trajectories, class_names
