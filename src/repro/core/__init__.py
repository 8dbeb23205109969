"""ModChecker core: Searcher, Parser, Integrity-Checker, orchestration,
plus the carving (anti-DKOM) and daemon extensions."""

from .baselines import BaselineVerdict, DictionaryChecker, SVVChecker
from .carver import (CarvedModule, ModuleCarver, identify_carved,
                     module_fingerprint)
from .crossview import CrossViewReport, cross_view
from .versioning import (VersionGroup, VersionedPoolReport,
                         check_pool_versioned, partition_by_version)
from .daemon import (Alert, AlertLog, CheckDaemon, PriorityPolicy,
                     RoundRobinPolicy)
from .health import (BreakerConfig, BreakerState, CircuitBreaker,
                     HealthRegistry)
from .integrity import SUPPORTED_HASHES, IntegrityChecker, md5_hex
from .modchecker import CheckOutcome, FetchResult, ModChecker, PoolOutcome
from .parser import ModuleParser, ParsedModule
from .report import (PairComparison, PoolReport, VMCheckReport, VMVerdict)
from .rva import (ADJUSTERS, RvaAdjustStats, adjust_rva_faithful,
                  adjust_rva_robust, first_differing_base_byte)
from .searcher import ModuleCopy, ModuleListEntry, ModuleSearcher

__all__ = [
    "BaselineVerdict", "DictionaryChecker", "SVVChecker",
    "CarvedModule", "ModuleCarver", "identify_carved", "module_fingerprint",
    "CrossViewReport", "cross_view",
    "VersionGroup", "VersionedPoolReport", "check_pool_versioned",
    "partition_by_version",
    "Alert", "AlertLog", "CheckDaemon", "PriorityPolicy", "RoundRobinPolicy",
    "BreakerConfig", "BreakerState", "CircuitBreaker", "HealthRegistry",
    "SUPPORTED_HASHES", "IntegrityChecker", "md5_hex",
    "CheckOutcome", "FetchResult", "ModChecker", "PoolOutcome",
    "ModuleParser", "ParsedModule",
    "PairComparison", "PoolReport", "VMCheckReport", "VMVerdict",
    "ADJUSTERS", "RvaAdjustStats", "adjust_rva_faithful",
    "adjust_rva_robust", "first_differing_base_byte",
    "ModuleCopy", "ModuleListEntry", "ModuleSearcher",
]
