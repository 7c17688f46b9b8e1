"""Command line front end.

Every subcommand writes one canonical JSON document to stdout (sorted
keys, no whitespace) and a short human summary to stderr.  Exit code 0
means the requested check passed or the object was produced; 1 means a
check ran to completion and failed; 2 means the invocation itself was
unusable (bad arguments, unreadable files, exhausted search budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import SCHEMA_VERSION, canonical_json, json_count, json_rows
from .chern import (
    MurphyChern,
    chern_from_json,
    filtration_signature,
    murphy_chern,
)
from .divisors import (
    NotCartier,
    class_group,
    evaluate_support,
    is_cartier,
    make_divisor,
)
from .errors import BudgetExceeded, OutsideSupport, ToricError
from .fans import (
    fan_from_json,
    fan_to_json,
    is_complete,
    is_smooth,
    star_subdivide,
    validate_fan,
)
from .incidence import (
    check_configuration,
    configuration_from_json,
    count_c_i,
    enumerate_c_i,
    listing_json_chunks,
    verify_equivalence,
)
from .klyachko import Incompatible, check_compatibility, filtration_from_json
from .moduli import (
    audit_pairwise,
    conditions_to_json,
    generate_conditions,
    make_murphy_instance,
)
from .murphy import (
    build_murphy_fan,
    incidence_from_json,
    murphy_fan_to_json,
    murphy_max_cone_count,
    murphy_ray_count,
)


# The largest --workers accepted.  The process pool starts every worker
# at once, and the cap is fixed so that a command means the same on
# every host.
MAX_WORKERS = 32


def _emit(obj):
    sys.stdout.write(canonical_json(obj) + "\n")


def _say(message):
    sys.stderr.write(message + "\n")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _json_arg(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {text!r}") from exc


def _int_vector(value, option, item):
    """A list of integers (booleans refused) read from a CLI option."""
    if not isinstance(value, list):
        raise ValueError(f"{option} must be a JSON list, got {value!r}")
    json_rows([value], option, option, item)
    return value


def _search_options(args):
    """budget and workers of a search, refusing --workers out of range."""
    if args.workers is not None and not 1 <= args.workers <= MAX_WORKERS:
        raise ValueError(
            f"--workers must be between 1 and {MAX_WORKERS}, got {args.workers}"
        )
    return dict(budget=args.budget, workers=args.workers)


def _rational_vector(values):
    return tuple(Fraction(str(x)) for x in values)


def _format_value(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


def cmd_fan_build(args):
    fan = fan_from_json({"dim": args.dim, "rays": _json_arg(args.rays),
                         "max_cones": _json_arg(args.cones)})
    _emit(fan_to_json(fan))
    _say(f"fan in dimension {fan.dim}: {len(fan.rays)} rays, "
         f"{len(fan.max_cones)} maximal cones")
    return 0


def cmd_fan_subdivide(args):
    fan = fan_from_json(_load_json(args.fan))
    new = star_subdivide(fan, tuple(_json_arg(args.cone)))
    _emit(fan_to_json(new))
    _say(f"star subdivision: {len(fan.max_cones)} -> {len(new.max_cones)} "
         f"maximal cones")
    return 0


def cmd_fan_validate(args):
    try:
        fan = fan_from_json(_load_json(args.fan))
    except ToricError as exc:
        _emit({"valid": False, "code": "construction", "detail": str(exc)})
        _say(f"invalid fan: {exc}")
        return 1
    violation = validate_fan(fan)
    if violation is None:
        _emit({"valid": True})
        _say("fan is valid")
        return 0
    _emit({"valid": False, "code": violation.code, "detail": violation.detail})
    _say(f"invalid fan: {violation.detail}")
    return 1


def cmd_fan_smooth(args):
    fan = fan_from_json(_load_json(args.fan))
    smooth = is_smooth(fan)
    _emit({"smooth": smooth})
    _say("fan is smooth" if smooth else "fan is not smooth")
    return 0 if smooth else 1


def cmd_fan_complete(args):
    fan = fan_from_json(_load_json(args.fan))
    complete = is_complete(fan)
    _emit({"complete": complete})
    _say("fan is complete" if complete else "fan is not complete")
    return 0 if complete else 1


def cmd_murphy_fan(args):
    handle = build_murphy_fan(args.n, materialize=False if args.lazy else None)
    _emit(murphy_fan_to_json(handle))
    _say(f"Murphy fan for n={args.n}: {murphy_ray_count(args.n)} rays, "
         f"{murphy_max_cone_count(args.n)} maximal cones"
         + ("" if handle.materialized else " (lazy)"))
    return 0


def cmd_murphy_chern(args):
    incidence = incidence_from_json(_load_json(args.incidence))
    handle = build_murphy_fan(incidence.total - 1, materialize=False)
    datum = murphy_chern(incidence, handle)
    _emit(datum.to_json())
    _say(f"rank-3 character datum on the Murphy fan for n={handle.n}")
    return 0


def cmd_murphy_equations(args):
    incidence = incidence_from_json(_load_json(args.incidence))
    instance = make_murphy_instance(
        incidence, materialize=False, allow_degenerate=args.allow_degenerate
    )
    conds = generate_conditions(instance)
    _emit(conditions_to_json(conds))
    _say(f"{len(conds.atoms)} pairwise conditions for {incidence.points} "
         f"points and {incidence.lines} lines")
    return 0


def cmd_murphy_verify(args):
    options = _search_options(args)
    incidence = incidence_from_json(_load_json(args.incidence))
    report = verify_equivalence(
        incidence, args.field, allow_degenerate=args.allow_degenerate, **options
    )
    data = report.to_json()
    _emit(data)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(data) + "\n")
    verdict = "agree" if report.equal else "DISAGREE"
    _say(f"over F_{args.field}: compiled conditions give "
         f"{report.count_conditions} configurations, direct enumeration "
         f"gives {report.count_direct}; the two routes {verdict}")
    return 0 if report.equal else 1


def cmd_murphy_audit(args):
    incidence = incidence_from_json(_load_json(args.incidence))
    instance = make_murphy_instance(
        incidence, materialize=False, allow_degenerate=args.allow_degenerate
    )
    violation = audit_pairwise(instance)
    if violation is None:
        _emit({"ok": True})
        _say("no three original rays span a cone")
        return 0
    _emit({"ok": False, "triple": list(violation.triple)})
    _say(f"original rays {violation.triple} span a cone")
    return 1


def cmd_divisor_cartier(args):
    fan = fan_from_json(_load_json(args.fan))
    divisor = make_divisor(
        fan, _int_vector(_json_arg(args.coeffs), "--coeffs", "coefficient")
    )
    outcome = is_cartier(fan, divisor)
    if isinstance(outcome, NotCartier):
        _emit({
            "cartier": False,
            "cone": list(outcome.cone),
            "obstruction": (
                None
                if outcome.obstruction is None
                else [str(x) for x in outcome.obstruction]
            ),
        })
        _say(f"not Cartier on cone {list(outcome.cone)}")
        return 1
    _emit({
        "cartier": True,
        "characters": [list(m) for m in outcome.characters],
    })
    _say("divisor is Cartier")
    return 0


def cmd_divisor_classgroup(args):
    fan = fan_from_json(_load_json(args.fan))
    group = class_group(fan)
    _emit({"free_rank": group.free_rank, "torsion": list(group.torsion)})
    parts = [f"Z^{group.free_rank}"] + [f"Z/{d}" for d in group.torsion]
    _say("class group: " + " + ".join(parts))
    return 0


def cmd_divisor_support(args):
    fan = fan_from_json(_load_json(args.fan))
    divisor = make_divisor(
        fan, _int_vector(_json_arg(args.coeffs), "--coeffs", "coefficient")
    )
    outcome = is_cartier(fan, divisor)
    if isinstance(outcome, NotCartier):
        _emit({"error": "divisor is not Cartier", "cone": list(outcome.cone)})
        _say("cannot evaluate: divisor is not Cartier")
        return 1
    point = _rational_vector(_json_arg(args.point))
    try:
        value = evaluate_support(outcome, fan, point)
    except OutsideSupport:
        _emit({"error": "point lies outside the support of the fan"})
        _say("point lies outside the support of the fan")
        return 1
    _emit({"value": _format_value(value)})
    _say(f"support function value: {value}")
    return 0


def cmd_bundle_check_compat(args):
    fan = fan_from_json(_load_json(args.fan))
    filt = filtration_from_json(_load_json(args.filtration))
    outcome = check_compatibility(fan, filt)
    if isinstance(outcome, Incompatible):
        _emit({
            "compatible": False,
            "cone": list(outcome.cone),
            "cell": None if outcome.cell is None else list(outcome.cell),
            "reason": outcome.reason,
        })
        _say(f"incompatible on cone {list(outcome.cone)}: {outcome.reason}")
        return 1
    _emit({
        "compatible": True,
        "rank": outcome.rank,
        "cones": [
            {"cone": list(cone), "characters": [list(u) for u in chars]}
            for cone, chars in zip(fan.max_cones, outcome.characters)
        ],
    })
    _say(f"filtrations are compatible; rank {outcome.rank} with "
         f"{len(fan.max_cones)} character tuples")
    return 0


def cmd_bundle_signature(args):
    datum = chern_from_json(_load_json(args.chern))
    ray = _json_arg(args.ray)
    if isinstance(datum, MurphyChern) and not isinstance(ray, list):
        ray = json_count(ray, "--ray", "a label")
    else:
        ray = tuple(_int_vector(ray, "--ray", "ray coordinate"))
    target = fan_from_json(_load_json(args.fan)) if args.fan else None
    signature = filtration_signature(datum, target, ray)
    _emit({"signature": [[jump, dim] for jump, dim in signature]})
    _say("signature " + ", ".join(f"dim {d} from jump {j}" for j, d in signature))
    return 0


def cmd_incidence_enumerate(args):
    options = _search_options(args)
    incidence = incidence_from_json(_load_json(args.incidence))
    if args.count_only:
        count = count_c_i(incidence, args.field, **options)
        _emit({"count": count})
    else:
        configs = enumerate_c_i(incidence, args.field, **options)
        count = len(configs)
        for chunk in listing_json_chunks(configs):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
    _say(f"{count} configurations over F_{args.field}")
    return 0


def cmd_incidence_check(args):
    config = configuration_from_json(_load_json(args.config))
    incidence = incidence_from_json(_load_json(args.incidence))
    matches = check_configuration(config, incidence)
    _emit({"matches": matches})
    _say("configuration realizes the incidence data" if matches
         else "configuration does not realize the incidence data")
    return 0 if matches else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricbundles",
        description="Fans, divisors, filtrations, and point-line configurations.",
    )
    parser.add_argument(
        "--version", action="version", version=SCHEMA_VERSION
    )
    top = parser.add_subparsers(dest="group", required=True)

    fan = top.add_parser("fan", help="construct and test fans").add_subparsers(
        dest="command", required=True
    )
    p = fan.add_parser("build", help="assemble a fan from rays and cones")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rays", required=True, help="JSON list of ray vectors")
    p.add_argument("--cones", required=True, help="JSON list of ray index lists")
    p.set_defaults(run=cmd_fan_build)
    p = fan.add_parser("subdivide", help="star subdivision at a cone")
    p.add_argument("--fan", required=True, help="fan JSON file")
    p.add_argument("--cone", required=True, help="JSON list of ray indices")
    p.set_defaults(run=cmd_fan_subdivide)
    p = fan.add_parser("validate", help="check the fan axioms")
    p.add_argument("--fan", required=True)
    p.set_defaults(run=cmd_fan_validate)
    p = fan.add_parser("smooth", help="check smoothness")
    p.add_argument("--fan", required=True)
    p.set_defaults(run=cmd_fan_smooth)
    p = fan.add_parser("complete", help="check completeness")
    p.add_argument("--fan", required=True)
    p.set_defaults(run=cmd_fan_complete)

    murphy = top.add_parser(
        "murphy", help="the iterated blow-up fan and its conditions"
    ).add_subparsers(dest="command", required=True)
    p = murphy.add_parser("fan", help="build the Murphy fan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lazy", action="store_true",
                   help="skip materializing the cone list")
    p.set_defaults(run=cmd_murphy_fan)
    p = murphy.add_parser("chern", help="rank-3 character datum for incidence data")
    p.add_argument("--incidence", required=True, help="incidence JSON file")
    p.set_defaults(run=cmd_murphy_chern)
    p = murphy.add_parser("equations", help="compile pairwise conditions")
    p.add_argument("--incidence", required=True)
    p.add_argument("--allow-degenerate", action="store_true")
    p.set_defaults(run=cmd_murphy_equations)
    p = murphy.add_parser(
        "verify", help="compare compiled conditions with direct enumeration"
    )
    p.add_argument("--incidence", required=True)
    p.add_argument("--field", type=int, required=True, help="prime p")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--allow-degenerate", action="store_true")
    p.add_argument("--report", default=None, help="also write the report here")
    p.set_defaults(run=cmd_murphy_verify)
    p = murphy.add_parser("audit", help="pairwise-span audit of original rays")
    p.add_argument("--incidence", required=True)
    p.add_argument("--allow-degenerate", action="store_true")
    p.set_defaults(run=cmd_murphy_audit)

    divisor = top.add_parser(
        "divisor", help="torus-invariant divisors"
    ).add_subparsers(dest="command", required=True)
    p = divisor.add_parser("cartier", help="Cartier test with local characters")
    p.add_argument("--fan", required=True)
    p.add_argument("--coeffs", required=True, help="JSON list, one per ray")
    p.set_defaults(run=cmd_divisor_cartier)
    p = divisor.add_parser("classgroup", help="divisor class group")
    p.add_argument("--fan", required=True)
    p.set_defaults(run=cmd_divisor_classgroup)
    p = divisor.add_parser("support", help="evaluate the support function")
    p.add_argument("--fan", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--point", required=True,
                   help='JSON list; entries may be strings like "1/2"')
    p.set_defaults(run=cmd_divisor_support)

    bundle = top.add_parser(
        "bundle", help="filtration compatibility and signatures"
    ).add_subparsers(dest="command", required=True)
    p = bundle.add_parser(
        "check-compat", help="test filtrations against a fan"
    )
    p.add_argument("--fan", required=True)
    p.add_argument("--filtration", required=True, help="filtration JSON file")
    p.set_defaults(run=cmd_bundle_check_compat)
    p = bundle.add_parser("signature", help="jump profile along one ray")
    p.add_argument("--chern", required=True, help="character datum JSON file")
    p.add_argument("--ray", required=True,
                   help="JSON: a label (integer or list) or a ray vector")
    p.add_argument("--fan", default=None,
                   help="fan JSON file (explicit data only)")
    p.set_defaults(run=cmd_bundle_signature)

    incidence = top.add_parser(
        "incidence", help="configurations over prime fields"
    ).add_subparsers(dest="command", required=True)
    p = incidence.add_parser("enumerate", help="all realizing configurations")
    p.add_argument("--incidence", required=True)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=cmd_incidence_enumerate)
    p = incidence.add_parser("check", help="test one configuration")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--incidence", required=True)
    p.set_defaults(run=cmd_incidence_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BudgetExceeded as exc:
        _say(f"search budget exhausted after {exc.nodes} nodes "
             f"({exc.partial_count} partial solutions)")
        return 2
    except (ToricError, ValueError, KeyError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
