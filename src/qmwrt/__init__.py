"""qmwrt: exact Witten-Reshetikhin-Turaev invariants of Seifert fibered
rational homology spheres at roots of unity, false theta functions, and
mechanical verification of their quantum modularity properties.

The package is organized bottom-up:

- number_theory : Jacobi symbols, Dedekind sums, Bernoulli numbers
- intmatrix     : integer matrices: determinants, signatures, cokernels
                  (no command runs it yet; kept for ROADMAP.md item 7)
- cyclotomic    : exact arithmetic in Q(zeta_D)
- gauss_sums    : quadratic Gauss sums, brute force and closed form
- seifert       : Seifert data, invariants, flat connections
- false_theta   : periodic bases, Eichler limits, S-matrix, L-values
- wrt           : WRT invariants (closed forms and the surgery oracle)
- harness       : executable verification of the modularity properties
- cli           : command line front end (`qmwrt`)
"""

from .cyclotomic import (
    CycloNumber,
    root_power,
    xi_power,
    xi_tilde_power,
)
from .false_theta import (
    eichler_limit,
    phi_basis,
    psi_basis,
    psi_combo,
    s_matrix_phi,
)
from .gauss_sums import gauss_brute, gauss_closed
from .harness import (
    brieskorn_identity,
    decomposition_report,
    geometric_relation,
    integrality_check,
    qhs_decomposition,
    residual_scan,
    saddle_expansion,
)
# Nothing in the package imports intmatrix until a command uses it (ROADMAP.md,
# open item 7).  Loading it here keeps every module that bench/tracing.py
# looks up by name in sys.modules after `import qmwrt`; revising the benchmark
# (open item 2) can drop this import.
from .intmatrix import det_int
from .number_theory import (
    RootContext,
    dedekind_sum,
    jacobi,
    normalize_s,
)
from .seifert import (
    SeifertData,
    abelian_connections,
    brieskorn,
    classify_geometry,
    geometric_connection,
    invariants,
    nonabelian_connections,
    parse_manifold,
)
from .wrt import (
    tau_seifert_closed,
    w_normalized,
    wrt_brute_surgery,
    wrt_lens,
)

__version__ = "0.1.0"
