"""Exact Kronecker coefficients by four independent methods.

- the class-sum character formula (symfun.kronecker_coefficient),
- the colored-tableau hook rule (colored.count_blasiak),
- the two-row x hook closed form (rosas.rosas_kronecker),
- near-hook reductions to signed and positive hook-indexed sums
  (nearhook.near_hook_expansion, nearhook.g_two_row_near_hook, and the
  b = 2 witness families, nearhook.witnesses, matched to a query by
  nearhook.witnesses_for).

All arithmetic is exact; there is no floating point anywhere.
"""

from .partition import (
    FrobeniusCoords,
    Partition,
    contains,
    format_partition,
    from_frobenius,
    hook_partition,
    is_double_hook,
    is_horizontal_strip,
    parse_partition,
    partition_count,
    partitions_of,
    tail,
    tail_ones,
    tail_twos,
)
from .tableau import (
    SkewSSYT,
    dimension,
    is_yamanouchi,
    lr_coefficient,
    lr_tableaux,
    lr_two_row,
    lr_via_strip_difference,
    strip_chain_count,
)
from .symfun import (
    SchurVector,
    SignedHookProduct,
    centralizer_order,
    character,
    coproduct,
    giambelli_expand,
    giambelli_leibniz,
    hall_inner,
    jacobi_trudi,
    jacobi_trudi_to_schur,
    kronecker_coefficient,
    kronecker_product,
    kronecker_row,
    schur,
    schur_product,
)
from .colored import (
    ColoredLetter,
    ColoredTableau,
    blft,
    content,
    count_blasiak,
    enumerate_blasiak,
    is_colored_yamanouchi,
    mixed_insert,
    mixed_insertion_tableau,
    mixed_insertion_trace,
    parse_colored_word,
    schensted_insert,
    total_color,
)
from .rosas import XiCaseReport, phi, psi, rosas_kronecker, xi, xi_report
from .nearhook import (
    TermCertificate,
    WitnessMember,
    WitnessSet,
    g_two_row_near_hook,
    index_set_minus,
    index_set_plus,
    j_minus,
    j_plus,
    near_hook_expansion,
    near_hook_value,
    special_nu,
    triple1,
    triple2,
    triple3,
    triple4,
    witnesses,
    witnesses_for,
)

__version__ = "0.1.0"
