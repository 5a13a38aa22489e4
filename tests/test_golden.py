"""Golden pins: trace bytes and summaries of fixed scenarios.

The digests are SHA-256 of ``trace.dumps()`` recorded on CPython 3.11; a
change that alters any of them changes behaviour, and only a deliberate
trace-format change may re-record them.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from loopsim.scenario import load_scenario, loads
from loopsim.sim import Metrics, run, summarize
from loopsim.trace import parse_trace
from test_acceptance import random_scenario

# the benchmark's scenario generator, imported as is, and its pinned digests
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

BENCHMARK_PINS = json.loads((PERFBENCH / "digests.json").read_text())

BUILTIN_SHA256 = {
    "case1": "10fac5b9ec994384ae420aa4746060afa27a8425e23d2da138133012f61cdf61",
    "case2": "b734741ea80066de2b3e0e8ef9163ad133196cf6d67c25762a7132588d816c71",
    "pingpong": "91444c7b2a059f7ee39c8b9ce3c58d3c161d9f0e8bb5a3fd52c7cd902e024ffe",
    "three-acl-conflict": "cb50fd27185c62c0eef8a885eef8a35fbffbd5852f401139e13c3b686c6ab9e5",
}

# random_scenario(random.Random(20260814), i) for i in range(20)
FUZZ_SHA256 = [
    "47606a0f976d6fe1fb510e6d5ea1a0eb829da7594261e83151b625b04e9b10c4",
    "dbbf4bbf3b2951b480b5b5de176dd1e879a61d3c12cf2f4b6e5573adf62fb56a",
    "8c9b56d0894c5bf8d832e8bdc036c1584e2895b0f0d89b7566dcf7a0773541dd",
    "b08427872d2c22e656b9bbf07d9ec0e9c518b8adea4c3e25a5965013e58b0107",
    "38f4f5aaceb74f33332e31c3cd6b1be516aeba7d99a46bdc6bc29ed19797bc01",
    "dc2745eee30cd0f95f40ba7c30bf5f221ef98146ef0b26b631a1cb77fa0d8eed",
    "753f1711dbfaa2e4f18904ca03af6dad5c2fda3f43796c53c1c13729c37db17c",
    "b7f3013c11d3cca03fb6e62263bfb279ebed649e7964447ce1793cb6394fda1d",
    "e85f15e8283b940dbd166b4f85de827497707f7e1d59deac5f6672ac2c801111",
    "5e17048db25190e625efbdc88d07a64038e8a043995907cf904eb354078e8d2b",
    "772ff53d0645dd1b377a6262cbc6517fb9185a7d09a1bafb385d573b4b777ec5",
    "45e1697b2139ec7a387f492189fbb98d290b4e6e1600ee152efee2141b3b5c85",
    "e478a4fe13be4cb3cebd08e59d5324fde6d246bc9ec829d8c7d10d738e4e6e4f",
    "96d8205257a39e25b4cc82b2b17a0e8ff671a618bc0d3f0009fef5e96134a3c0",
    "fe3f3aebc16abeb71d0a30384a6dad24e547d26711a0b3f1f8621c8e2960383d",
    "317863d5040621609f132a0ba53e9f2c6be15f155e93d4519f1cd77c6f27b9fb",
    "4487bec2862c9f1b48152bd78ee4b27967dd1d7721f150f442e940130c6693e2",
    "faadd24f4d1e433dbac6720d831d2f320be2ea52b114e1a87c57f97b05c136f2",
    "7907b9b76086c7d0753bf3b24b1f8c9c6e9985444dad2e941454f54437416fed",
    "2e8e5044a48a7d127a3b39f79aa333c6c338b2e1ad132a3f0a720dc358130ae5",
]

# workloads.generate(name, 1) cut to 150 ticks: contended carries the
# preemptions, NoExecute evictions and e2e arbitration the built-ins lack
WORKLOAD_SHA256 = {
    "steady-long": "83de6208c5aae08bbbff039e043dd96cb7cd02414a6c880f60166e75c83406b6",
    "contended": "4e0a569e1c9882ea39cee97f74de6c78dbbdde05f83b027380d92a780340dd8f",
}

BUILTIN_SUMMARY = {
    "case1": "\n".join([
        "scenario case1 (seed 42, 4 ticks)",
        "placements:",
        "  core-toronto: acl2-pod-0",
        "  edge-waterloo: acl1-pod-0",
        "conflicts: ResourceContention=1",
        "  t0 ResourceContention on regional:waterloo: won by acl1",
        "intents: submitted=2 applied=2 dropped=0",
        "knowledge exchanges: granted=0 denied=0",
        "prediction mae: acl1=0.000 acl2=0.000",
    ]),
    "case2": "\n".join([
        "scenario case2 (seed 7, 3 ticks)",
        "placements:",
        "  core-toronto: stream-b",
        "  edge-calgary: stream-a, tenant-web",
        "  edge-waterloo: acl1-pod-0",
        "conflicts: none",
        "intents: submitted=1 applied=1 dropped=0",
        "knowledge exchanges: granted=0 denied=0",
        "prediction mae: acl1=0.000",
    ]),
    "pingpong": "\n".join([
        "scenario pingpong (seed 5, 12 ticks)",
        "placements:",
        "  (nothing bound)",
        "conflicts: Interference=1",
        "  t5 Interference on regional:calgary: froze energy-saver until t15",
        "intents: submitted=9 applied=2 dropped=frozen=7",
        "knowledge exchanges: granted=0 denied=0",
        "prediction mae: energy-saver=95.877 load-router=0.000",
    ]),
    "three-acl-conflict": "\n".join([
        "scenario three-acl-conflict (seed 11, 16 ticks)",
        "placements:",
        "  core-toronto: slice-pod-1",
        "  edge-waterloo: slice-pod-0",
        "conflicts: ResourceContention=2",
        "  t10 ResourceContention on e2e: won by slice",
        "  t10 ResourceContention on e2e: won by slice",
        "intents: submitted=3 applied=3 dropped=0",
        "knowledge exchanges: granted=1 denied=0",
        "prediction mae: core=7.416 ran=9.218 slice=414.117",
    ]),
}


def digest(trace) -> str:
    return hashlib.sha256(trace.dumps().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILTIN_SHA256))
def test_builtin_trace_bytes_are_pinned(name):
    trace, _, _ = run(load_scenario(name))
    assert digest(trace) == BUILTIN_SHA256[name]


def test_fuzz_trace_bytes_are_pinned():
    rng = random.Random(20260814)
    digests = [digest(run(random_scenario(rng, i))[0]) for i in range(20)]
    assert digests == FUZZ_SHA256


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHA256))
def test_workload_trace_bytes_are_pinned(name):
    trace, _, _ = run(loads(workloads.generate(name, 1), ticks=150))
    assert digest(trace) == WORKLOAD_SHA256[name]


@pytest.mark.parametrize("name", sorted(BENCHMARK_PINS["sha256"]))
def test_full_length_workload_trace_bytes_match_the_benchmark_pins(name):
    # every tick of the benchmark's pinned play, past where the 150-tick pins stop
    trace, _, _ = run(loads(workloads.generate(name, BENCHMARK_PINS["default_seed"])))
    assert digest(trace) == BENCHMARK_PINS["sha256"][name]


@pytest.mark.parametrize("name", sorted(BUILTIN_SUMMARY))
def test_builtin_summary_is_pinned(name):
    trace, _, _ = run(load_scenario(name))
    assert summarize(trace) == BUILTIN_SUMMARY[name]


@pytest.mark.parametrize("name", sorted(BUILTIN_SHA256))
def test_metrics_rebuild_from_a_trace_file(name):
    trace, metrics, _ = run(load_scenario(name))
    assert Metrics.from_trace(parse_trace(trace.dumps())) == metrics
