"""Whole-run metrics dumps, pinned by digest.

Each digest is the SHA-256 of ``json.dumps(registry.dump(),
sort_keys=True)`` for one run: the quickstart in every mode, fault-free
and under each fault scenario, with and without a trigger; a 16-tenant
fleet per admission policy (the service registry and two tenants'); and
one Fig. 6 sweep point's dump, cold and warm.  A change to which
metrics a run publishes, to any value, or to the order a float tally is
summed in moves a digest; EMA timers pin ``value``, ``count`` and
``total`` bit for bit.
"""

import hashlib
import json

import pytest

from repro.__main__ import _quickstart
from repro.errors import ReproError
from repro.experiments import fig_tenants
from repro.experiments.cache import reset_default_cache
from repro.experiments.parallel import _execute_point
from repro.faults import SCENARIOS, build_scenario
from repro.observability import MetricsRegistry
from repro.service import ADMISSION_POLICIES, WorkflowService
from repro.workflow import CoupledWorkflow, Mode
from repro.workflow.triggers import EntropyPercentile

STEPS = 20
SEED = 42
#: The two fleet tenants whose own registries are pinned.
PINNED_TENANTS = (0, 7)


def _digest(registry_dump) -> str:
    text = json.dumps(registry_dump, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def quickstart_digest(mode: str, scenario: str, trigger: bool) -> str | None:
    """Digest of one quickstart run's registry; None if the run raises."""
    config, trace = _quickstart(mode, STEPS, SEED)
    plan = None
    if scenario != "none":
        baseline = CoupledWorkflow(config, trace).run()
        plan = build_scenario(
            scenario,
            horizon=baseline.end_to_end_seconds,
            seed=0,
            staging_cores=config.staging_cores,
            steps=len(trace),
        )
    registry = MetricsRegistry()
    try:
        CoupledWorkflow(
            config, trace, metrics=registry, faults=plan,
            trigger=EntropyPercentile() if trigger else None,
        ).run()
    except ReproError:
        return None
    return _digest(registry.dump())


def fleet_digests(policy: str) -> dict[str, str]:
    """Digests of one 16-tenant fleet's service and pinned tenants."""
    service_metrics = MetricsRegistry()
    service = WorkflowService(
        sim_cores=fig_tenants.POOL_SIM_CORES,
        staging_cores=fig_tenants.POOL_STAGING_CORES,
        policy=policy,
        starvation_wait=fig_tenants.STARVATION_WAIT,
        metrics=service_metrics,
    )
    tenant_metrics = {index: MetricsRegistry() for index in PINNED_TENANTS}
    for index in range(16):
        service.submit(
            f"tenant-{index}",
            fig_tenants._tenant_config(index),
            fig_tenants._workload(fig_tenants.SEED + index),
            arrival=index * fig_tenants.ARRIVAL_STAGGER,
            user=f"user-{index % 2}",
            metrics=tenant_metrics.get(index),
        )
    service.run()
    digests = {"service": _digest(service_metrics.dump())}
    for index, registry in tenant_metrics.items():
        digests[f"tenant-{index}"] = _digest(registry.dump())
    return digests


def sweep_point_digests() -> tuple[str, str]:
    """Digests of a Fig. 6 point's dump on a cold, then a warm cache."""
    params = {"n": 16, "nsteps": 4}
    cold = _execute_point("fig6", params)[1]
    warm = _execute_point("fig6", params)[1]
    return _digest(cold), _digest(warm)


_MODES = [mode.value for mode in Mode]
_SCENARIOS = ["none"] + sorted(SCENARIOS)

#: (mode, scenario, trigger) -> digest, or None where the run raises.
QUICKSTART = {
    ("post_processing", "none", False):
        "babf8cf65d88785d285da76a944a91dcf4ac7b3088386efc698ef5c63031d57f",
    ("post_processing", "none", True):
        "babf8cf65d88785d285da76a944a91dcf4ac7b3088386efc698ef5c63031d57f",
    ("post_processing", "blackout", False):
        "d49c17aa736d34ab3a780aa5c2602a22f50c8eae090698864e7506911375dd66",
    ("post_processing", "blackout", True):
        "d49c17aa736d34ab3a780aa5c2602a22f50c8eae090698864e7506911375dd66",
    ("post_processing", "cascade", False):
        "7bfc29cbc9db7831c8f678007f754ccdd8df74923034f9c01d3243a1b2d8a790",
    ("post_processing", "cascade", True):
        "7bfc29cbc9db7831c8f678007f754ccdd8df74923034f9c01d3243a1b2d8a790",
    ("post_processing", "core-loss", False):
        "4c29ad1609ac5bc4406ef7285719e3a72d51b5c4b55f49a668f2eeb7a44a407b",
    ("post_processing", "core-loss", True):
        "4c29ad1609ac5bc4406ef7285719e3a72d51b5c4b55f49a668f2eeb7a44a407b",
    ("post_processing", "flaky-ingest", False):
        "babf8cf65d88785d285da76a944a91dcf4ac7b3088386efc698ef5c63031d57f",
    ("post_processing", "flaky-ingest", True):
        "babf8cf65d88785d285da76a944a91dcf4ac7b3088386efc698ef5c63031d57f",
    ("post_processing", "link-brownout", False):
        "a224511b4b520a234b1183f3d5e897cd106e094415f58ecf1ddeaeadcec1abb0",
    ("post_processing", "link-brownout", True):
        "a224511b4b520a234b1183f3d5e897cd106e094415f58ecf1ddeaeadcec1abb0",
    ("post_processing", "stragglers", False):
        "c29b068d6defbbdb29aefc06fbbdaa2facc625af7f1208489756412d1cc522c0",
    ("post_processing", "stragglers", True):
        "c29b068d6defbbdb29aefc06fbbdaa2facc625af7f1208489756412d1cc522c0",
    ("static_insitu", "none", False):
        "34d31153c0443f0a4e1f9b856d8106a63d47a322160a908cedbec3a779b976c0",
    ("static_insitu", "none", True):
        "34d31153c0443f0a4e1f9b856d8106a63d47a322160a908cedbec3a779b976c0",
    ("static_insitu", "blackout", False):
        "e8bf7c0a7e3d2a1860be3682ca288b7d8daa9cfd4f3be50013ace5c146f9882a",
    ("static_insitu", "blackout", True):
        "e8bf7c0a7e3d2a1860be3682ca288b7d8daa9cfd4f3be50013ace5c146f9882a",
    ("static_insitu", "cascade", False):
        "effe3e38a975d856028245fa955966427b800b9b242ba09d5b8fd3b4058f2a42",
    ("static_insitu", "cascade", True):
        "effe3e38a975d856028245fa955966427b800b9b242ba09d5b8fd3b4058f2a42",
    ("static_insitu", "core-loss", False):
        "3e71fa8901ca3c7afaf87f7b8c0f75c777ab067978141e6dbc7a112d3cefd0f4",
    ("static_insitu", "core-loss", True):
        "3e71fa8901ca3c7afaf87f7b8c0f75c777ab067978141e6dbc7a112d3cefd0f4",
    ("static_insitu", "flaky-ingest", False):
        "34d31153c0443f0a4e1f9b856d8106a63d47a322160a908cedbec3a779b976c0",
    ("static_insitu", "flaky-ingest", True):
        "34d31153c0443f0a4e1f9b856d8106a63d47a322160a908cedbec3a779b976c0",
    ("static_insitu", "link-brownout", False):
        "69d90c6bc4e2fbd767af4de32fd0282d8af38e5925b4242ba2001672ec700f98",
    ("static_insitu", "link-brownout", True):
        "69d90c6bc4e2fbd767af4de32fd0282d8af38e5925b4242ba2001672ec700f98",
    ("static_insitu", "stragglers", False):
        "80945f4bb7d2f0e79b7facdef86877387860e9cfce0f2a4794fc3938df791209",
    ("static_insitu", "stragglers", True):
        "80945f4bb7d2f0e79b7facdef86877387860e9cfce0f2a4794fc3938df791209",
    ("static_intransit", "none", False):
        "41acbdd0dce439c2896240bf39859d7932c6b2e56c0d022fba74868f4a7353e9",
    ("static_intransit", "none", True):
        "41acbdd0dce439c2896240bf39859d7932c6b2e56c0d022fba74868f4a7353e9",
    ("static_intransit", "blackout", False):
        "f0de95c7f085d86905cdef9dc4134a093de8521e1d67d7913e9249560acb5532",
    ("static_intransit", "blackout", True):
        "f0de95c7f085d86905cdef9dc4134a093de8521e1d67d7913e9249560acb5532",
    ("static_intransit", "cascade", False):
        "c5154feaae756e6c64bb7f348ce0c9bfa00d6663db6e8c356d65ae789ee83d5e",
    ("static_intransit", "cascade", True):
        "c5154feaae756e6c64bb7f348ce0c9bfa00d6663db6e8c356d65ae789ee83d5e",
    ("static_intransit", "core-loss", False):
        "cc36d4673ebd49cf562ae3ccd79e3370410910fd3413edf37cd8d56fac1bbb21",
    ("static_intransit", "core-loss", True):
        "cc36d4673ebd49cf562ae3ccd79e3370410910fd3413edf37cd8d56fac1bbb21",
    ("static_intransit", "flaky-ingest", False):
        "b8d47fdc2a26ba9641ace4555b709b8aa4a4e91eba7e3698c18edaf89833fd1f",
    ("static_intransit", "flaky-ingest", True):
        "b8d47fdc2a26ba9641ace4555b709b8aa4a4e91eba7e3698c18edaf89833fd1f",
    ("static_intransit", "link-brownout", False):
        "e00ef9953076b6645d942367d5772edf10e671dd20764ce1979314ff11c16394",
    ("static_intransit", "link-brownout", True):
        "e00ef9953076b6645d942367d5772edf10e671dd20764ce1979314ff11c16394",
    ("static_intransit", "stragglers", False):
        "b61e5c84705ec97e3f94d23f79383a144075cc311176f8c31abb05108351ee67",
    ("static_intransit", "stragglers", True):
        "b61e5c84705ec97e3f94d23f79383a144075cc311176f8c31abb05108351ee67",
    ("adaptive_application", "none", False):
        "16ce06093de26b239cd3f3873ddaca337c57d835cd9c5c6aaa7cf44fe7e9e448",
    ("adaptive_application", "none", True):
        "b2907bac0c03a79e2c859535e69ab8f45a37dabadf7ae21f0b3942d1523fbc20",
    ("adaptive_application", "blackout", False):
        "6ba8e35d65993421ce3044cc77c3d0cfdae5cf24721bac29a7f799e5b5c3535c",
    ("adaptive_application", "blackout", True):
        "d6fa95087dcd0078da63cd3d1be084365735e89f78f46e5205779309d64c344d",
    ("adaptive_application", "cascade", False):
        "e2ff8428828546752629886b40aa52bbf6d9a81834cee09cab861f307de8f344",
    ("adaptive_application", "cascade", True):
        "58936bb04ab7272ed83e1ce069d2874b8ffc8688f6c4c9a3c5133e90ac008733",
    ("adaptive_application", "core-loss", False):
        "5b5ff72b287a60575a33f2449cfa76cacae84e812f651e5524c719b7029f2f11",
    ("adaptive_application", "core-loss", True):
        "d3b67ff379361fe8c4a0c6405f1ee0061742154c3bd23b3d331af816bfe138a6",
    ("adaptive_application", "flaky-ingest", False):
        "29679bb670d4136b49d0fb23d012954b392d5b2fab9f80640282629550b26ee0",
    ("adaptive_application", "flaky-ingest", True):
        "28600e75809111672aec44320e5e22f0ce8dcca2d9db1577cd596afba5531ec8",
    ("adaptive_application", "link-brownout", False):
        "e6d35e1b5a5c13eff3d42e75540f8a2d6f0e8f8f41da8974ff799cbed2a3dcf0",
    ("adaptive_application", "link-brownout", True):
        "810932ca98d1b9a1837e745569859413a241527e7659ac1c777a80e56a660193",
    ("adaptive_application", "stragglers", False):
        "bea6103d8c08f2065cdd3120c76c52252742aef5734018695961efbc71c9ffda",
    ("adaptive_application", "stragglers", True):
        "3a8a0127c79a97ed7b5dc7317534b94e4d701dc46449d6363de445f97f297f60",
    ("adaptive_middleware", "none", False):
        "b30e442bf7fe85d5301f6aa4984583acd7c8b87ddfa23590595e56c3a4f21179",
    ("adaptive_middleware", "none", True):
        "9e6c0e1bb7a69d90b6dbfe3ad48004c78b877c563f597ea4f9d67b23b94e92e5",
    ("adaptive_middleware", "blackout", False):
        "cf867e60befc99608f41309cf46a8dd20ed70fbfe7cc5095b30e0f949027ccfe",
    ("adaptive_middleware", "blackout", True):
        "df82d4931d571bce9c5af24876db15d068781bfe646a9e5390896235cea2f634",
    ("adaptive_middleware", "cascade", False):
        "77885f5221a4a143528170f8bbcbaf267f085ba465575a421c7cefd90b1f6cff",
    ("adaptive_middleware", "cascade", True):
        "6be975b0356348b28cfc1be2b676c53e24e88b1cf1499eeed8edc90716ec392e",
    ("adaptive_middleware", "core-loss", False):
        "636bac4b92b1e6790ed302c7ef76e341a7f4202fd66aae16f4e3055dde81bc22",
    ("adaptive_middleware", "core-loss", True):
        "d00e96150f634bd55a812f7310f9c18fb264bbf24b54d103adbcdd77827dfd54",
    ("adaptive_middleware", "flaky-ingest", False):
        "9d01e13fda0ebc09976a092ddab6cc6e82e4c17750c1d6a5f509370666dbc4c1",
    ("adaptive_middleware", "flaky-ingest", True):
        "1ad657dd42cb506295eacd41b8198129345f24d7a3542c3ff43154f3d05a2c04",
    ("adaptive_middleware", "link-brownout", False):
        "e288f0e797ad395b8493d47547daea1d218dbd077c86ee718077f6b2fb2bf1a8",
    ("adaptive_middleware", "link-brownout", True):
        "a1c38191ed08c01c7d31b2e505a3d122088b43dac4a40eded0dd8666e5331f9d",
    ("adaptive_middleware", "stragglers", False):
        "6adadb28a113816e5419809c86178054b9b3a02b8097788d189d6ac06216b82a",
    ("adaptive_middleware", "stragglers", True):
        "67e6d3a076e51629132950c49a2cee3d73108f314ccb0297f22e848cc5179780",
    ("adaptive_resource", "none", False):
        "9648730bc2e69c90eb690a5af972761960f5bf0a84573afcbcef1dd699238d81",
    ("adaptive_resource", "none", True):
        "206d54fed37f348767560460bae5800dee5dcde537c3c5e962c6b46f6613d831",
    ("adaptive_resource", "blackout", False):
        "6ba8e35d65993421ce3044cc77c3d0cfdae5cf24721bac29a7f799e5b5c3535c",
    ("adaptive_resource", "blackout", True):
        "d6fa95087dcd0078da63cd3d1be084365735e89f78f46e5205779309d64c344d",
    ("adaptive_resource", "cascade", False):
        "e2ff8428828546752629886b40aa52bbf6d9a81834cee09cab861f307de8f344",
    ("adaptive_resource", "cascade", True):
        "58936bb04ab7272ed83e1ce069d2874b8ffc8688f6c4c9a3c5133e90ac008733",
    ("adaptive_resource", "core-loss", False):
        "5b5ff72b287a60575a33f2449cfa76cacae84e812f651e5524c719b7029f2f11",
    ("adaptive_resource", "core-loss", True):
        "d3b67ff379361fe8c4a0c6405f1ee0061742154c3bd23b3d331af816bfe138a6",
    ("adaptive_resource", "flaky-ingest", False):
        "263159591e195ede9c3d96647fd8832edca3061997ecb6cac36ba3cdc991a5dc",
    ("adaptive_resource", "flaky-ingest", True):
        "027a1eca250049ed9c1b9d92d76471e123a6ef3a1a4ab18382ffcda14a2c02b8",
    ("adaptive_resource", "link-brownout", False):
        "3d6324a45a8f0c4a046798cb5a3c0a79703cbecb643ff65bad231248d1bade23",
    ("adaptive_resource", "link-brownout", True):
        "8b81b8612beddea77578abd5dfc4816009cd3870d966a031346535118335dbd7",
    ("adaptive_resource", "stragglers", False):
        "486b224ab64bb5cd2c1a825be58d88e96ba44c7976c5d3a92856c67ed1c3c44b",
    ("adaptive_resource", "stragglers", True):
        "1d6b56f0dfea84c9483135c7ab997433a7be12cb7a64cb9efd8b5fbc1c829c3d",
    ("global", "none", False):
        "d7d4770d439be26c811aa5069d9b0091085c41d413f4de8cf55d8494d88dfecb",
    ("global", "none", True):
        "2a87bc7ede87c94e73474907455e26f4ebe2c3e5dbebe13c62ba675e8523438b",
    ("global", "blackout", False):
        "0354a4331bc4a0ab47d6edd5e1f19a0dfd01511f1635979002845962bf84846e",
    ("global", "blackout", True):
        "a227779b3a6254debdf8c042dbe07aa39fa5f0b2f3483a458635d92482fb43d7",
    ("global", "cascade", False):
        "722ca31cd77f9824ada73cfe3a4d3c455c57df57588854d60aac5478b0a8a8e1",
    ("global", "cascade", True):
        "93512a344e380edd412d1f9dc444211ae7edf4bfefafaa0d9a14ac7a02e45044",
    ("global", "core-loss", False):
        "10ca31497067aea170b387b30ecbae37ad1b09a41a0444be415c9dbe72917b71",
    ("global", "core-loss", True):
        "bc0337d80e74932def101f17f84de9f488dae1f655d88ede7e7d98782ed60426",
    ("global", "flaky-ingest", False):
        "2dc0af516b112d1a80f9ed88067c7b2aadbf9ec91bddb45c095d1d611102b0e5",
    ("global", "flaky-ingest", True):
        "d5dbe10003cc5e9b7f447bb56d379f214ceac41d10ae1f1c36ca39bb7591f3c9",
    ("global", "link-brownout", False):
        "148100ef76480950ac5baa3ee4219143d54703436736c4d428bbb12c7edba3fa",
    ("global", "link-brownout", True):
        "f5b34baf0dc02b7af98be0ddf420837f78512a27c72b2babcbfbee74c0ac2ca3",
    ("global", "stragglers", False):
        "555e2c7f4318ca39ac64188db8599045e24c5bd24f5b4e3da8e13bc229602d77",
    ("global", "stragglers", True):
        "f87db23301ba924056881102d55bba3d2c00def8d95daf749191ca33e55331e8",
}

FLEET = {
    "fifo": {
        "service":
            "05bf6804900177217a789fbf84ec1af845ec3128314e01d407956fcd09e17e60",
        "tenant-0":
            "b107d4d2a8fad9a27e4c8fb58332ef1a5b340a868274c8dbb44b19d5f8164c56",
        "tenant-7":
            "9ecef6b411d5bce508864b5ece4225d911edcc57b3c760e00c7192e9f2a6ee08",
    },
    "smallest": {
        "service":
            "cb80ae6c50e8393f7b7ee8e85398a7192aec055c8460af4012f48fb21602b7fb",
        "tenant-0":
            "5ed8d86a9616a8df90db0031aa12fe375230ae55096ba91161d17abf6961f98c",
        "tenant-7":
            "af6ab7e74401ba90d2de0502d5d0962f18b1b9a42c7c8c5d631952ca98a58d58",
    },
    "fair_share": {
        "service":
            "cb80ae6c50e8393f7b7ee8e85398a7192aec055c8460af4012f48fb21602b7fb",
        "tenant-0":
            "5ed8d86a9616a8df90db0031aa12fe375230ae55096ba91161d17abf6961f98c",
        "tenant-7":
            "af6ab7e74401ba90d2de0502d5d0962f18b1b9a42c7c8c5d631952ca98a58d58",
    },
}

SWEEP_POINT = (
    "67cacb3e434724d11b5651c762a5051988c287d5b027c6d8f19f1ec6c009b38c",
    "04d86e660ca0a5273487cc5d26293c5d79e0dcec9b3ff40ace75082634204668",
)


@pytest.mark.parametrize("mode", _MODES)
def test_quickstart_dumps(mode):
    got = {
        (mode, scenario, trigger): quickstart_digest(mode, scenario, trigger)
        for scenario in _SCENARIOS
        for trigger in (False, True)
    }
    want = {key: value for key, value in QUICKSTART.items() if key[0] == mode}
    assert got == want


@pytest.mark.parametrize("policy", list(ADMISSION_POLICIES))
def test_fleet_dumps(policy):
    assert fleet_digests(policy) == FLEET[policy]


def test_sweep_point_dumps(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    reset_default_cache()
    try:
        assert sweep_point_digests() == SWEEP_POINT
    finally:
        reset_default_cache()
