"""casson3: exact arithmetic for a fully perturbative SU(3) Casson-type
invariant of the homology spheres obtained by 1/K surgery on (2,q) torus
knots, with the structural laws (integrality, orientation symmetry, move
calculus for the chain-complex correction) as testable surfaces.

Each public name is imported from its module; importing the package loads
none of them.  The entry points: `assembly.assemble` (Lambda = A + B + C + D
and the reference closed forms), `seifert.from_surgery`,
`flat_moduli.enumerate_connections`, `dedekind.c_correction`,
`floer.build_floer_complex` and `floer.apply_move`, `polynomial.fit_and_verify`,
`knotpoly.check_conjecture`, `cli.main`, and `errors.Casson3Error`, the base
of every error raised."""

__version__ = "0.1.0"
