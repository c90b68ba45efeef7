"""Analytic data records for the L-functions an expression can reference.

Every L-function is L(s, chi) of a primitive Dirichlet character (the
GL(1) instantiation); the Riemann zeta function is the one of the
character mod 1.  The dual of L(s, chi) is L(s, conj chi), so a real
character is its own dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import characters as chars
from .errors import NotPrimitive, OracleRange


@dataclass(frozen=True)
class LFunctionDescriptor:
    """One L(s, pi): rank, conductor, spectral parameters, coefficient oracle."""

    id: str
    rank: int
    conductor: int
    spectral_params: tuple  # rank complex numbers mu_r
    pole_order: int  # 1 iff Riemann zeta, else 0
    root_number: complex
    character: chars.Character

    @property
    def kind(self):
        """'zeta' for conductor 1, else 'dirichlet'."""
        return "zeta" if self.conductor == 1 else "dirichlet"

    @property
    def log_conductor(self):
        return math.log(self.conductor)

    def coefficient(self, n: int) -> complex:
        """n-th Dirichlet coefficient lambda(n)."""
        if n < 1:
            raise OracleRange("coefficient index must be >= 1")
        return self.character(n)


def zeta_descriptor() -> LFunctionDescriptor:
    return dirichlet_descriptor(chars.character(1, 0), "zeta")


def dirichlet_descriptor(chi: chars.Character, id: str = None) -> LFunctionDescriptor:
    """Descriptor for L(s, chi), chi primitive.

    Spectral parameter mu = parity (0 for even chi, 1 for odd), the standard
    completion.  Root number from the normalized Gauss sum.  The character
    mod 1 gives zeta, with its pole at s = 1.
    """
    if not chi.is_primitive:
        raise NotPrimitive(
            f"need a primitive character; chi index {chi.index} mod {chi.modulus} "
            f"has conductor {chi.conductor}"
        )
    return LFunctionDescriptor(
        id=f"chi_{chi.modulus}_{chi.index}" if id is None else id,
        rank=1,
        conductor=chi.modulus,
        spectral_params=(complex(chi.parity),),
        pole_order=int(chi.modulus == 1),
        root_number=chars.root_number(chi),
        character=chi,
    )


def contragredient(desc: LFunctionDescriptor) -> LFunctionDescriptor:
    """The dual descriptor: desc itself for a real character, else the
    conjugate character's, same conductor."""
    if desc.character.order <= 2:
        return desc
    return dirichlet_descriptor(desc.character.conjugate())
