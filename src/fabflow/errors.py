"""Exception hierarchy shared across the package.

Callers mostly care about two families: ScenarioValidationError means the
input (file, override, argument) is malformed and maps to CLI exit code 1;
InfeasibleError means the input parsed fine but the model has no answer
(unstable station, no feasible fleet, demand above capacity) and maps to
exit code 2.  Every leaf class carries a short machine-readable ``code``
that the CLI echoes as ``error=<code>``.

Every error pickles to the same class, message and fields, so an error
raised in a worker process reaches the caller as it was raised.
"""


class FabflowError(Exception):
    code = "error"

    def __reduce__(self):
        # Exception pickles as type(self)(*self.args), which a leaf whose
        # __init__ formats its message from its own fields cannot take; rebuild
        # from the message and the fields without calling __init__ instead
        return _unpickled, (type(self), self.args, self.__dict__)


def _unpickled(cls, args, fields):
    exc = cls.__new__(cls, *args)  # BaseException.__new__ keeps args as the message
    exc.__dict__.update(fields)
    return exc


class ScenarioValidationError(FabflowError):
    """Malformed input: bad file, bad reference, bad argument."""

    code = "validation"


class InfeasibleError(FabflowError):
    """Well-formed input for which the model has no feasible answer."""

    code = "infeasible"


# --- scenario / parsing ---------------------------------------------------

class ParseError(ScenarioValidationError):
    code = "parse_error"


class SchemaVersionUnsupported(ScenarioValidationError):
    code = "schema_version_unsupported"


class ValidationErrors(ScenarioValidationError):
    """Aggregates every validation failure found in one pass."""

    code = "validation_errors"

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


# most characters of a value's repr that a problem message shows
_SHOWN_MAX = 80


def shown(value) -> str:
    """repr(value) for a problem message: cut to _SHOWN_MAX characters, with
    the full length noted, so that the message stays short whatever the input."""
    text = repr(value)
    if len(text) <= _SHOWN_MAX:
        return text
    return f"{text[:_SHOWN_MAX]}... ({len(text)} characters)"


def param_error(name: str, value, domain: str, ok, integer: bool = False) -> str | None:
    """The problem with a numeric parameter, or None when `value` is a number
    (an int when `integer`; never a bool) for which ok(value) holds.

    `domain` completes "<name> must ...".  A finite domain's bound is
    sys.float_info.max, not inf, so that an int too large for a float fails it.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return f"{name} must be {'an integer' if integer else 'a number'} (got {shown(value)})"
    if not ok(value):
        return f"{name} must {domain} (got {shown(value)})"
    return None


def _raise_problems(*problems: str | None) -> None:
    """ValidationErrors listing every problem param_error found, if any."""
    found = [p for p in problems if p is not None]
    if found:
        raise ValidationErrors(found)


class IoError(ScenarioValidationError):
    code = "io_error"


# --- flow network construction --------------------------------------------

class DuplicateNode(ScenarioValidationError):
    code = "duplicate_node"


class NoOriginOrDestination(ScenarioValidationError):
    code = "no_origin_or_destination"


class InfeasibleDemand(InfeasibleError):
    code = "infeasible_demand"

    def __init__(self, demand, max_value):
        self.demand = demand
        self.max_value = max_value
        super().__init__(
            f"demand {shown(demand)} kg exceeds network capacity {max_value} kg"
        )


# --- queueing --------------------------------------------------------------

class InvalidRouting(ScenarioValidationError):
    code = "invalid_routing"


class NonOpenNetwork(InfeasibleError):
    code = "non_open_network"


class UnstableStation(InfeasibleError):
    code = "unstable_station"

    def __init__(self, station_id, rho):
        self.station_id = station_id
        self.rho = float(rho)
        # from 1e6 on, 6 significant digits, not up to 300 fixed-point ones
        shown_rho = f"{self.rho:.6f}" if self.rho < 1e6 else f"{self.rho:.6g}"
        super().__init__(f"station {station_id} unstable: utilization {shown_rho}")


class ZeroVehicles(InfeasibleError):
    code = "zero_vehicles"

    def __init__(self, station_id):
        self.station_id = station_id
        super().__init__(
            f"transport station {station_id} has positive arrivals but no vehicles"
        )


# --- planner ---------------------------------------------------------------

class NoStablePoint(InfeasibleError):
    code = "no_stable_point"


class NoFeasibleFleet(InfeasibleError):
    code = "no_feasible_fleet"


# --- scheduler -------------------------------------------------------------

class MissingDistance(ScenarioValidationError):
    code = "missing_distance"

    def __init__(self, origin, destination):
        self.origin = origin
        self.destination = destination
        super().__init__(f"no distance entry for {origin} -> {destination}")


class EmptySeeds(ScenarioValidationError):
    code = "empty_seeds"
