"""Logic locking schemes.

The two schemes FALL attacks (TTLock [34] and SFLL-HDh [33]) plus the
earlier baselines the paper discusses (random XOR/XNOR locking in the
EPIC lineage [16], SARLock [30], Anti-SAT [26, 27]). Every scheme
returns a :class:`~repro.locking.base.LockedCircuit` carrying the locked
netlist (key inputs marked), the ordered key-input names and —
for experiment bookkeeping only — the correct key.
"""

from repro.locking.base import LockedCircuit, apply_key
from repro.locking.ttlock import lock_ttlock
from repro.locking.sfll import lock_sfll_hd
from repro.locking.rll import lock_random_xor
from repro.locking.sarlock import lock_sarlock
from repro.locking.antisat import lock_antisat

__all__ = [
    "LockedCircuit",
    "apply_key",
    "lock_ttlock",
    "lock_sfll_hd",
    "lock_random_xor",
    "lock_sarlock",
    "lock_antisat",
]
