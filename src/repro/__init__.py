"""fall-repro: Functional Analysis Attacks on Logic Locking, reproduced.

A complete implementation of Sirone & Subramanyan's FALL attacks (DATE
2019 / arXiv 1811.12088v2) together with every substrate the paper
relies on: a CDCL SAT solver, a gate-level circuit library with
``.bench`` I/O and equivalence checking, an AIG strash pass, the locking
schemes under attack (TTLock, SFLL-HDh) and the baseline schemes and
attacks that frame the paper's story.

Typical entry points:

>>> from repro.circuit import paper_example_circuit
>>> from repro.locking import lock_sfll_hd
>>> from repro.attacks import fall_attack
>>> locked = lock_sfll_hd(paper_example_circuit(), h=1, cube=(1, 0, 0, 1))
>>> fall_attack(locked.circuit, h=1).key
(1, 0, 0, 1)

Subpackages
-----------
``repro.sat``
    CDCL solver, CNF container, XOR and cardinality encodings.
``repro.circuit``
    Netlist DAG, simulation, Tseitin encoding, CEC, AIG/strash,
    synthetic benchmark generation, known circuits.
``repro.locking``
    TTLock, SFLL-HDh, random XOR locking, SARLock, Anti-SAT.
``repro.attacks``
    SAT attack, FALL pipeline, key confirmation, SPS, Double DIP,
    AppSAT.
``repro.experiments``
    The paper's evaluation harness (Table I, Figures 5-6, §VI-B stats).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
