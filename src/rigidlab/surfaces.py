"""Shipped surface catalog, JSON loading, and affine transforms of charts."""

from __future__ import annotations

import math

import numpy as np

from .expressions import Binary, Num, parse_expression, to_text
from .geometry import GeometryError, Immersion
from .jets import read_input

__all__ = [
    "catalog",
    "catalog_names",
    "load_surface",
    "surface_to_dict",
    "plane",
    "sphere",
    "ellipsoid",
    "cylinder",
    "half_cylinder_wide",
    "saddle",
    "quartic_cap",
    "quartic_cap_polar",
    "spherical_cap",
    "flat_disk_polar",
    "rigid_motion",
]

TWO_PI = 2.0 * math.pi


def _immersion(name, components, domain, periodic, orientation="outward",
               closed_poles=None):
    asts = tuple(parse_expression(c, len(domain)) for c in components)
    return Immersion(name=name, dim=len(domain), components=asts,
                     domain=tuple(tuple(d) for d in domain),
                     periodic=tuple(periodic), orientation=orientation,
                     closed_poles=closed_poles)


def plane():
    return _immersion("plane", ("x1", "x2", "0"),
                      [(-1.0, 1.0), (-1.0, 1.0)], (False, False))


def sphere(radius=1.0):
    r = repr(float(radius))
    return _immersion(
        f"sphere_r{radius:g}",
        (f"{r}*cos(x1)*cos(x2)", f"{r}*sin(x1)*cos(x2)", f"{r}*sin(x2)"),
        [(0.0, TWO_PI), (-0.5 * math.pi, 0.5 * math.pi)],
        (True, False), closed_poles=(True, True))


def ellipsoid(a=2.0, b=1.0, c=1.0):
    return _immersion(
        f"ellipsoid_{a:g}_{b:g}_{c:g}",
        (f"{a!r}*cos(x1)*cos(x2)", f"{b!r}*sin(x1)*cos(x2)", f"{c!r}*sin(x2)"),
        [(0.0, TWO_PI), (-0.5 * math.pi, 0.5 * math.pi)],
        (True, False), closed_poles=(True, True))


def cylinder(radius=1.0):
    r = repr(float(radius))
    return _immersion(
        f"cylinder_r{radius:g}",
        (f"{r}*cos(x1)", f"{r}*sin(x1)", "x2"),
        [(0.0, TWO_PI), (-1.0, 1.0)], (True, False))


def half_cylinder_wide():
    """Radius-2 cylinder traversed at half speed: isometric partner of the
    unit cylinder over the same chart (metric du^2 + dv^2 on both)."""
    return _immersion(
        "half_cylinder_wide",
        ("2.0*cos(x1/2.0)", "2.0*sin(x1/2.0)", "x2"),
        [(0.0, TWO_PI), (-1.0, 1.0)], (False, False))


def saddle():
    return _immersion("saddle", ("x1", "x2", "x1^2 - x2^2"),
                      [(-1.0, 1.0), (-1.0, 1.0)], (False, False))


def quartic_cap():
    return _immersion("quartic_cap",
                      ("x1", "x2", "(1 - x1^2 - x2^2)^2"),
                      [(-0.7, 0.7), (-0.7, 0.7)], (False, False))


def quartic_cap_polar():
    """The quartic cap over an annulus in polar coordinates; the outer edge
    x2 = 1 is the planar boundary circle where K vanishes.  Oriented so the
    normal points to the bulge side (up), matching the graph chart."""
    return _immersion("quartic_cap_polar",
                      ("x2*cos(x1)", "x2*sin(x1)", "(1 - x2^2)^2"),
                      [(0.0, TWO_PI), (0.2, 1.0)], (True, False),
                      orientation="inward")


def spherical_cap(lat0=0.0, lat1=1.2):
    """Unit-sphere band with the latitude-lat0 circle as its lower edge."""
    return _immersion(f"spherical_cap_{lat0:g}",
                      ("cos(x1)*cos(x2)", "sin(x1)*cos(x2)", "sin(x2)"),
                      [(0.0, TWO_PI), (float(lat0), float(lat1))],
                      (True, False))


def flat_disk_polar(inner=0.3):
    return _immersion("flat_disk_polar",
                      ("x2*cos(x1)", "x2*sin(x1)", "0"),
                      [(0.0, TWO_PI), (float(inner), 1.0)], (True, False))


_CATALOG = {
    "plane": plane,
    "sphere": sphere,
    "ellipsoid": ellipsoid,
    "cylinder": cylinder,
    "saddle": saddle,
    "quartic_cap": quartic_cap,
    "quartic_cap_polar": quartic_cap_polar,
}


def catalog():
    """Name -> builder for the shipped surfaces."""
    return dict(_CATALOG)


def catalog_names():
    return sorted(_CATALOG)


def load_surface(source):
    """Build an :class:`Immersion` from a catalog name, a JSON file path, or
    an already-decoded dict (the surface-definition schema in the README)."""
    if isinstance(source, Immersion):
        return source
    if isinstance(source, str) and source in _CATALOG:
        return _CATALOG[source]()
    if isinstance(source, str):
        source = read_input(source, as_json=True)
    if not isinstance(source, dict):
        raise GeometryError(f"cannot build a surface from {source!r}")
    for key in ("name", "dim", "components", "domain", "periodic"):
        if key not in source:
            raise GeometryError(f"surface definition misses key {key!r}")
    components = source["components"]
    if not (isinstance(components, (list, tuple))
            and all(isinstance(c, str) for c in components)):
        raise GeometryError("surface components must be a list of "
                            f"expression strings, got {components!r}")
    try:
        domain = [(float(lo), float(hi)) for lo, hi in source["domain"]]
        periodic = [bool(p) for p in source["periodic"]]
        closed = source.get("closed_poles")
        closed = tuple(closed) if closed else None
    except (TypeError, ValueError) as exc:
        raise GeometryError("surface domain must hold [lo, hi] number "
                            "pairs, periodic and closed_poles flags") from exc
    if not all(-math.inf < lo < hi < math.inf for lo, hi in domain):
        raise GeometryError(f"surface domain {domain!r} needs finite lo < hi")
    if source["dim"] != len(domain) or not domain:
        raise GeometryError(f"surface dim {source['dim']!r} must equal its "
                            f"number of domain intervals ({len(domain)}) "
                            "and be at least 1")
    return _immersion(source["name"], components, domain, periodic,
                      orientation=source.get("orientation", "outward"),
                      closed_poles=closed)


def surface_to_dict(immersion):
    out = {
        "name": immersion.name,
        "dim": immersion.dim,
        "components": [to_text(c) for c in immersion.components],
        "domain": [list(d) for d in immersion.domain],
        "periodic": list(immersion.periodic),
        "orientation": immersion.orientation,
    }
    if immersion.closed_poles:
        out["closed_poles"] = list(immersion.closed_poles)
    return out


def rigid_motion(immersion, rotation, translation, name=None):
    """Apply x -> Q x + b to a chart symbolically (component ASTs are
    recombined, so the result is again an exact expression surface)."""
    q = np.asarray(rotation, dtype=float)
    b = np.asarray(translation, dtype=float)
    a_dim = immersion.ambient_dim
    if q.shape != (a_dim, a_dim) or b.shape != (a_dim,):
        raise GeometryError("rotation/translation shape mismatch")
    if not np.allclose(q @ q.T, np.eye(a_dim), atol=1e-12):
        raise GeometryError("rotation must be orthogonal")
    comps = []
    for alpha in range(a_dim):
        node = Num(float(b[alpha]))
        for beta in range(a_dim):
            coeff = float(q[alpha, beta])
            if coeff == 0.0:
                continue
            term = Binary("*", Num(coeff), immersion.components[beta])
            node = Binary("+", node, term)
        comps.append(node)
    return Immersion(
        name=name or f"{immersion.name}_moved",
        dim=immersion.dim, components=tuple(comps),
        domain=immersion.domain, periodic=immersion.periodic,
        orientation=immersion.orientation, closed_poles=immersion.closed_poles)
