"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so callers can catch a
single type. The hierarchy distinguishes *modelling* errors (an invalid
graph), *analysis* errors (a well-formed graph for which the requested
analysis has no answer: inconsistency, deadlock), and *resource* errors
(budget exhaustion while running an exponential baseline).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ModelError(ReproError):
    """An invalid model was constructed (bad rates, unknown task, ...)."""


class InconsistentGraphError(ReproError):
    """The graph admits no repetition vector (rate balance is unsolvable).

    Consistency is a necessary condition for any bounded-memory schedule
    (Lee & Messerschmitt for SDF, Bilsen et al. for CSDF), so throughput is
    undefined for inconsistent graphs.
    """


class DeadlockError(ReproError):
    """No valid schedule exists *for the analysed formulation*.

    In the MCRP formulation this corresponds to a circuit whose total
    transit ``H(c)`` is non-positive while its cost ``L(c)`` is positive,
    i.e. the linear program of Theorem 2 is infeasible for every period.

    Nuance: for a periodicity vector ``K`` strictly below the repetition
    vector this means "no K-periodic schedule with *this* K" — the graph
    itself may be live (the paper's ``N/S`` rows for the 1-periodic
    method). K-Iter treats such a circuit as infinitely critical and
    raises K along it; only at ``K_t = q_t`` does the infeasibility
    certify a true deadlock.

    ``cycle_nodes`` / ``critical_tasks`` carry the offending circuit when
    the raising layer knows it (solver layers annotate progressively).
    """

    def __init__(self, message: str, *, cycle_nodes=None, critical_tasks=None):
        super().__init__(message)
        self.cycle_nodes = cycle_nodes
        self.critical_tasks = critical_tasks


class NotLiveError(DeadlockError):
    """Alias kept for API clarity when liveness is checked explicitly."""


class BudgetExceededError(ReproError):
    """A step/state/wall-clock budget was exhausted before an answer.

    Raised by the symbolic-execution baseline and by the bench runner; the
    bench reporting layer converts it into the paper's ``> 1d``-style
    TIMEOUT table entries.
    """

    def __init__(self, message: str, elapsed: float | None = None):
        super().__init__(message)
        self.elapsed = elapsed


class SolverError(ReproError):
    """An internal solver failed to certify its result (should not happen)."""


class ConfigurationError(ReproError):
    """A solver setting is invalid whatever the engine (an unknown K
    update policy, say); the fleet driver never retries it on a
    fallback engine."""


class SchedulingError(ReproError):
    """A schedule-construction policy could not produce a schedule.

    Raised by the scheduling-policy registry for unknown policy names or
    options, and by resource-constrained policies when no start times
    within the mobility windows respect the binding's capacity at the
    *certified* period. The latter is not a solver bug: a binding can
    genuinely be too tight for ``λ*`` — the principled escalation is to
    transform the graph with :func:`repro.mapping.apply_mapping` (which
    folds the resource constraint into the dataflow) and schedule the
    mapped graph at *its* certified period instead.
    """
