"""Spin-coherent-state qubits on two-component Bose-Einstein condensates.

Exact state algebra for collective-spin qubits, entangling gates between
condensates, quantum-algorithm mapping, and Lindblad models for
dephasing, atom loss, and cavity-mediated gate decoherence.
"""

from .channels import build_dephasing_model, build_loss_model
from .lindblad import fit_decay_rate, integrate_master
from .registers import plus_x_state
from .spin import make_fock

__version__ = "0.1.0"
