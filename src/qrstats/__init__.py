"""Quadratic-residue distribution statistics.

Exact Jacobi/Legendre arithmetic, sieves for primes, rough numbers and
square-free windows, per-prime residue scans (least non-residues, gap
statistics, windowed first non-residues, longest runs), incomplete
character sums against cancellation benchmarks, and batch experiments
with deterministic parallelism.  The qrstats command line tool fronts
the same operations.
"""

__version__ = "0.1.0"

from .arith import is_perfect_square, jacobi, legendre_euler
from .charsums import (
    CharSumReport,
    RoughPartition,
    burgess_exponent,
    burgess_report,
    burgess_sweep,
    default_sweep_length,
    incomplete_char_sum,
    rough_char_sum,
    rough_partition,
)
from .experiments import (
    ErdosMean,
    ExceptionalDensity,
    GapTailSummary,
    SquarefreePairDensity,
    TraceReport,
    erdos_constant,
    erdos_mean,
    erdos_mean_curve,
    exceptional_density_sweep,
    gap_tail_scan,
    h_quarter_power,
    proof_trace,
    squarefree_pair_density,
)
from .residue_scan import (
    GapStats,
    ResidueMap,
    crt_adversarial_u,
    first_nonresidue_after,
    gap_stats,
    gap_tail,
    least_nonresidue,
    longest_qr_run,
    residue_map,
)
from .rng import XorShift64Star
from .sieve import (
    MertensProduct,
    RoughSet,
    SquarefreeWindow,
    feller_tornier_A,
    is_prime_u64,
    mertens_product,
    primes_in,
    primes_upto,
    rough_set,
    rough_threshold,
    squarefree_in_interval,
)
