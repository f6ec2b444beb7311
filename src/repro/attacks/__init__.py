"""Ground-truth DDoS landscape: vectors, infrastructure, scenario, generator.

The paper observes a single global attack landscape through ten partial
vantage points.  This package *is* that landscape for the reproduction: a
seeded generator emits ground-truth attack events over the 4.5-year study
window, shaped by the qualitative dynamics the paper reports (COVID-era
growth, the 2021-2022 SAV-driven decline of reflection-amplification
attacks, booter takedowns, campaign bursts).
"""

from repro.attacks.booters import BooterEcosystem, BooterMarket, BooterService, Takedown
from repro.attacks.botnets import Botnet, estimate_population
from repro.attacks.campaigns import Campaign, CampaignModel
from repro.attacks.events import OBSERVATORY_KEYS, AttackClass
from repro.attacks.generator import GeneratorConfig, GroundTruthGenerator
from repro.attacks.landscape import LandscapeModel, PiecewiseCurve
from repro.attacks.ibr import IbrConfig, IbrGenerator
from repro.attacks.spoofer import SavGroundTruth, SpooferCampaign
from repro.attacks.spoofing import SavModel
from repro.attacks.vectors import (
    DP_VECTORS,
    RA_VECTORS,
    VECTORS,
    Vector,
    vector_by_name,
)

__all__ = [
    "AttackClass",
    "OBSERVATORY_KEYS",
    "Vector",
    "VECTORS",
    "RA_VECTORS",
    "DP_VECTORS",
    "vector_by_name",
    "SavModel",
    "SavGroundTruth",
    "SpooferCampaign",
    "BooterMarket",
    "BooterEcosystem",
    "BooterService",
    "Takedown",
    "IbrGenerator",
    "IbrConfig",
    "Botnet",
    "estimate_population",
    "Campaign",
    "CampaignModel",
    "LandscapeModel",
    "PiecewiseCurve",
    "GeneratorConfig",
    "GroundTruthGenerator",
]
