"""Analytic data records for the L-functions an expression can reference.

The kinds are the Riemann zeta function and Dirichlet L-functions of
primitive characters (the GL(1) instantiation).
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
    self_dual: bool
    contragredient_id: str
    kind: str = "zeta"  # zeta | dirichlet
    character: object = None

    @property
    def log_conductor(self):
        return math.log(self.conductor)

    def coefficient(self, n: int) -> complex:
        """n-th Dirichlet coefficient lambda(n)."""
        if n < 1:
            raise OracleRange("coefficient index must be >= 1")
        if self.kind == "zeta":
            return 1.0 + 0j
        return self.character(n)


def zeta_descriptor() -> LFunctionDescriptor:
    return LFunctionDescriptor(
        id="zeta",
        rank=1,
        conductor=1,
        spectral_params=(0j,),
        pole_order=1,
        root_number=1.0 + 0j,
        self_dual=True,
        contragredient_id="zeta",
        kind="zeta",
    )


def dirichlet_descriptor(chi: chars.Character, id: str = None) -> LFunctionDescriptor:
    """Descriptor for L(s, chi), chi primitive.

    Spectral parameter mu = parity (0 for even chi, 1 for odd), the standard
    completion.  Root number from the normalized Gauss sum.
    """
    if not chi.is_primitive:
        raise NotPrimitive(
            f"need a primitive character; chi index {chi.index} mod {chi.modulus} "
            f"has conductor {chi.conductor}"
        )
    if chi.modulus == 1:
        return zeta_descriptor()
    did = id or f"chi_{chi.modulus}_{chi.index}"
    conj = chi.conjugate()
    return LFunctionDescriptor(
        id=did,
        rank=1,
        conductor=chi.modulus,
        spectral_params=(complex(chi.parity),),
        pole_order=0,
        root_number=chars.root_number(chi),
        self_dual=(conj.index == chi.index),
        contragredient_id=f"chi_{chi.modulus}_{conj.index}",
        kind="dirichlet",
        character=chi,
    )


def contragredient(desc: LFunctionDescriptor) -> LFunctionDescriptor:
    """The dual descriptor: conjugated data, same conductor."""
    if desc.kind == "zeta" or desc.contragredient_id == desc.id:
        return desc
    return dirichlet_descriptor(desc.character.conjugate())
