"""Energy models: bit energy, dynamic energy, static energy, technologies.

Implements Section 3.2 of the paper:

* equation (1)–(2): the *bit energy* ``EBit`` decomposition into router energy
  ``ERbit``, inter-tile link energy ``ELbit`` and local (core) link energy
  ``ECbit``, and the energy of one bit traversing ``K`` routers;
* equation (3)–(4): total NoC dynamic energy for CWM and CDCM;
* equation (5) and (9): NoC static power and static energy;
* equation (10): total (static + dynamic) NoC energy under CDCM.

Technology presets for a 0.35 um and a 0.07 um process are provided in
:mod:`repro.energy.technology`; they are calibrated so the *static* share of
NoC energy is negligible for the older process and significant (tens of
percent) for the deep-submicron one, which is the property the paper's
Table 2 exercises.
"""

from repro.energy.technology import (
    Technology,
    TECH_0_35UM,
    TECH_0_07UM,
    TECH_PAPER_EXAMPLE,
    scale_static_power,
)
from repro.energy.bit_energy import bit_energy_per_hop, bit_energy_route
from repro.energy.dynamic import (
    communication_dynamic_energy,
    cwm_dynamic_energy,
    cdcm_dynamic_energy,
    dynamic_energy_breakdown,
    traffic_dynamic_energy,
)
from repro.energy.static import noc_static_power, noc_static_energy
from repro.energy.totals import EnergyBreakdown, total_energy_cdcm, total_energy_cwm

__all__ = [
    "Technology",
    "TECH_0_35UM",
    "TECH_0_07UM",
    "TECH_PAPER_EXAMPLE",
    "scale_static_power",
    "bit_energy_per_hop",
    "bit_energy_route",
    "communication_dynamic_energy",
    "cwm_dynamic_energy",
    "cdcm_dynamic_energy",
    "dynamic_energy_breakdown",
    "traffic_dynamic_energy",
    "noc_static_power",
    "noc_static_energy",
    "EnergyBreakdown",
    "total_energy_cdcm",
    "total_energy_cwm",
]
