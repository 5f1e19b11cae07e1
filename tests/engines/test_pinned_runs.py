"""Pinned end-to-end runs: what a wall-clock or refactoring PR must not move.

Every (algorithm, engine, config) cell below runs once on one seeded
R-MAT and is compared with values recorded at an earlier commit: the
SHA-256 of the result values, ``repr`` of the simulated total, the
superstep count and the sync-cache counters — and a *shape* digest over
every per-superstep record and the run's cost attribution.  Simulated
time and values are this reproduction's outputs; a change that is only
meant to make the Python faster or smaller leaves every one of them
equal to the last bit.

``PINS`` (the {algorithm} x {powergraph, graphx} x {full, cache10}
grid) was taken at commit 3bc3ff8 (``np.unique``-based merges,
``intersect1d``/``setdiff1d`` cache settling, per-job partition masks).
``SHAPES`` (the same grid's shape digests) and ``EXTRA_PINS`` (the rows
that grid never visits: host-only engines, the asynchronous engine, the
local-iteration depth cap, monotone algorithms on the strict order,
eager uploads, a recovered crash, a rollback that degrades a node) were
taken at commit 2cff664, when the superstep was still written twice
(``_run_iteration`` / ``_run_superstep_combined``).
A PR that moves them on purpose — a cost-model change — re-takes them
with ``PYTHONPATH=src python tests/engines/test_pinned_runs.py`` and
says why.
"""

import hashlib
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from repro.algorithms import (ConnectedComponents, LabelPropagation,
                              MultiSourceSSSP, PageRank)
from repro.api import (RESILIENT, ClusterSpec, GXPlug, MiddlewareConfig,
                       RuntimeConfig)
from repro.engines import AsyncEngine, GraphXEngine, PowerGraphEngine
from repro.fault import CRASH, FaultPlan
from repro.graph import rmat

GRAPH = rmat(1200, 9600, seed=21)

ALGORITHMS = {
    "pagerank": lambda: (PageRank(), 5),
    "sssp-bf": lambda: (MultiSourceSSSP([0, 7, 42, 99]), None),
    "cc": lambda: (ConnectedComponents(), None),
    "lp": lambda: (LabelPropagation(), 5),
}
ENGINES = {"powergraph": PowerGraphEngine, "graphx": GraphXEngine}
CONFIGS = {
    "full": lambda: RuntimeConfig.preset("full"),
    "cache10": lambda: MiddlewareConfig(
        cache_capacity=GRAPH.num_vertices // 10),
}

# the rows the grid above never visits
EXTRA_ENGINES = {**ENGINES, "async": AsyncEngine}
EXTRA_CONFIGS = {
    **CONFIGS,
    # no middleware: host edge pass and host apply
    "host": lambda: None,
    # the depth-cap hand-over of the combined order
    "cap1": lambda: MiddlewareConfig(skip_max_local_iterations=1),
    "cap2-cache10": lambda: MiddlewareConfig(
        skip_max_local_iterations=2,
        cache_capacity=GRAPH.num_vertices // 10),
    # monotone algorithms on the strict order; eager `_sync_cost`
    "noskip": lambda: MiddlewareConfig(sync_skip=False),
    "eager": lambda: MiddlewareConfig(sync_skip=False, lazy_upload=False),
    # one crash the agent recovers from; one that outlives the retry
    # budget, rolls back and degrades node 0 (the strict order's
    # host-share branch inside a middleware run)
    "crash": lambda: RESILIENT.with_(
        fault_plan=FaultPlan.single(CRASH, 1, after_kernels=1)),
    "crash-degrade": lambda: RESILIENT.with_(
        fault_plan=FaultPlan.single(CRASH, 2, repeat=10)),
}

# (algorithm, engine, config) ->
#   (values sha256, repr(total_ms), iterations, hits, misses, evictions)
PINS = {
    ('pagerank', 'powergraph', 'full'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '95.55072', 5, 38549, 2031, 0),
    ('pagerank', 'powergraph', 'cache10'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '98.04144000000001', 5, 2032, 9509, 12949),
    ('pagerank', 'graphx', 'full'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '88.23118000000001', 5, 38585, 870, 0),
    ('pagerank', 'graphx', 'cache10'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '89.13237999999998', 5, 7877, 3278, 6718),
    ('sssp-bf', 'powergraph', 'full'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '127.39526', 7, 31835, 2397, 0),
    ('sssp-bf', 'powergraph', 'cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '129.0683', 7, 16525, 5559, 8959),
    ('sssp-bf', 'graphx', 'full'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '133.71920000000003', 7, 54894, 4, 0),
    ('sssp-bf', 'graphx', 'cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '134.23400000000004', 7, 32413, 1195, 4354),
    ('cc', 'powergraph', 'full'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '82.2961', 4, 12696, 2136, 0),
    ('cc', 'powergraph', 'cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '83.1109', 4, 2181, 3980, 4708),
    ('cc', 'graphx', 'full'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '88.86214', 5, 19390, 870, 0),
    ('cc', 'graphx', 'cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '89.12841999999999', 5, 9141, 1411, 2565),
    ('lp', 'powergraph', 'full'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '97.58335999999998', 5, 38549, 2031, 0),
    ('lp', 'powergraph', 'cache10'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '99.99668', 5, 2833, 9259, 10581),
    ('lp', 'graphx', 'full'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '90.70468000000001', 5, 38585, 870, 0),
    ('lp', 'graphx', 'cache10'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '91.53627999999999', 5, 8032, 3101, 4382),
}


# the same grid -> shape digest (see ``observe``)
SHAPES = {
    ('pagerank', 'powergraph', 'full'):
        'b6ce2b30ae588973dc75a8bd31ae6b8681efdb27705f0b9bebdc476c9d0b0a06',
    ('pagerank', 'powergraph', 'cache10'):
        'd6132985126dec06af43c67d78ad0a4fbf7c0be8528afe6c6bab9b5c92961951',
    ('pagerank', 'graphx', 'full'):
        'db6813de4d680af4a7839cb43dd69e84f3707b33b602b0d1774b7ec2966075ba',
    ('pagerank', 'graphx', 'cache10'):
        '5eb6b035434b9a50c6229069015a48f46b1640a868e9c5794850c3d2b043d862',
    ('sssp-bf', 'powergraph', 'full'):
        'd321245ae30b2aa41d6828b51eb103b86f84407ac57202bc92b6766f3cb35591',
    ('sssp-bf', 'powergraph', 'cache10'):
        '6a893c27e7e4f1be4360998f8894b25ebe3c1494ce1aaf9ab98e2dacdf9fa611',
    ('sssp-bf', 'graphx', 'full'):
        '6afc7e8fe985f274122ed5cdf5f03cee2c547d39d85d2632a4cc0a9a2c6f2cf5',
    ('sssp-bf', 'graphx', 'cache10'):
        '01d67f8ec6dbfe028709d8b47844e7810c60d8b8a7b818cef34ecb3df34754e4',
    ('cc', 'powergraph', 'full'):
        '5803953a608807cf5a8e1282e66c4002369b160e4de9a7e85b2b8102e4fafecd',
    ('cc', 'powergraph', 'cache10'):
        'd9829c57e86b64c8d2dc79811c801279b768895d037114e2610bcc46b7e975ff',
    ('cc', 'graphx', 'full'):
        'b9ef99fddc8564d1574fabd131e2575b2278b75f26a284b5e5f3bd61300f8876',
    ('cc', 'graphx', 'cache10'):
        'c64fd6b56d184c70850fcb8b604bb0d28f5b012d85699bb9bdbe84b484f1cf48',
    ('lp', 'powergraph', 'full'):
        'd250df84fa47bd0d443119a2b4bb7683cef00aba8844a4d1d02991cf046eb8c8',
    ('lp', 'powergraph', 'cache10'):
        'b3cc84f1490453d7d9122c1881057a8c291e73acfbcd8a90e48970abf92c8a6c',
    ('lp', 'graphx', 'full'):
        '0afc73c74fb0312e88c8797ddae76e18ce9dca68ced0e09a574ecfacb0f11619',
    ('lp', 'graphx', 'cache10'):
        'ee9bcb0d48f361d529ff725e388e04dd090c216a4149fca9f62b325effe3254d',
}

# (algorithm, engine, config) -> PINS' six fields + the shape digest
EXTRA_PINS = {
    ('pagerank', 'powergraph', 'host'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '228.39978000000002', 5, 0, 0, 0,
         '5e4fd63ac77698e65087f625f6189cd19ddd824dd9cda90f338220fff6e460a1'),
    ('pagerank', 'powergraph', 'noskip'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '95.55072', 5, 38549, 2031, 0,
         'b6ce2b30ae588973dc75a8bd31ae6b8681efdb27705f0b9bebdc476c9d0b0a06'),
    ('pagerank', 'powergraph', 'eager'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '101.79876000000002', 5, 14352, 6718, 0,
         '4b2d994745e4de746fbc60518f73a85baa4e6d3c4445a5f98698e7aab365cb23'),
    ('pagerank', 'powergraph', 'crash'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '147.09206', 5, 38549, 2031, 0,
         '92472bf2304ba4913353255a763bb6a4d614cb7d58a1affeb84ebda73e27ee67'),
    ('pagerank', 'powergraph', 'crash-degrade'):
        ('f33ecd2760786a345b935a43924025dd0c516f6893b4e1422091976b6db627e4',
         '271.79624', 5, 22652, 3388, 0,
         '83a0521fb2c6a16a18c67d691365ee7e6ccda71cdb0829e6da0ca4f96e78eb8b'),
    ('pagerank', 'graphx', 'host'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '230.33255999999994', 5, 0, 0, 0,
         '45e93066bb2317a83ff363ca1a2b828395df3fbbfb169cece6960fb5fd19377c'),
    ('pagerank', 'graphx', 'noskip'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '88.23118000000001', 5, 38585, 870, 0,
         'db6813de4d680af4a7839cb43dd69e84f3707b33b602b0d1774b7ec2966075ba'),
    ('pagerank', 'graphx', 'eager'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '95.83680000000001', 5, 38692, 870, 0,
         'ef1a7ff28944c87738f32b6acd1e3df75ce949d6029442fa6038d1f6685c06d8'),
    ('pagerank', 'graphx', 'crash'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '139.74432000000002', 5, 38585, 870, 0,
         '108e68b7c618bd5f4201b18b929894ba69856d652838a33126155d8843acc202'),
    ('pagerank', 'graphx', 'crash-degrade'):
        ('50cef999196ccea179e3b2fd4b8c488c36b629424ccef485218e99e1e345819c',
         '255.25974', 5, 22505, 1464, 0,
         'b2e601fee99f82858f1ef56b6e2f7d9731d6d5c9b1cd9a0916cb4329a27d79bc'),
    ('sssp-bf', 'powergraph', 'host'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '182.37', 11, 0, 0, 0,
         'e8ea3fd322fb2d41fb7167b0121ec1674c83671dd683da7deacdd38ba857ca9a'),
    ('sssp-bf', 'powergraph', 'cap1'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '100.92081999999998', 10, 15866, 2434, 0,
         '923d641d2d835a80a16236ab929a3cfee840f0459e7dea5740b4168d32b611c0'),
    ('sssp-bf', 'powergraph', 'cap2-cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '104.92094', 7, 9599, 5299, 8241,
         'edc220bb85709a59f10d897e56bad52640062c90a7db4f360b011b534a126fc7'),
    ('sssp-bf', 'powergraph', 'noskip'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '109.83038', 11, 27196, 1166, 0,
         '4c9f1997d3fe5bf0fbd057b96b78545c9800902064ca57d8516d2d4836de4fc0'),
    ('sssp-bf', 'powergraph', 'eager'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '113.78319999999998', 11, 11664, 4225, 0,
         'c3af0417c065d7a4eac79d9ff5c0567d08abd0318643d2945541e42b09ade442'),
    ('sssp-bf', 'powergraph', 'crash'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '179.56606', 7, 31835, 2397, 0,
         '36a2d28eb578c510355863221ca5604a36be4ac79257cfd6a795ea4254293c37'),
    ('sssp-bf', 'powergraph', 'crash-degrade'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '281.73079999999993', 11, 24726, 2165, 0,
         '93136d895f61f440c45c28cfb0657062a3865fbb06b5f9a2f6a6827d14b03a78'),
    ('sssp-bf', 'graphx', 'host'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '454.7986399999999', 11, 0, 0, 0,
         '82f3255d6eb9e84329dd06af7b72d4c37d23ec05164833679b0f74df800eed8d'),
    ('sssp-bf', 'graphx', 'cap1'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '103.20468', 11, 32989, 4, 0,
         '804b63f52fd38ccf025ee6fc991d06016062c0324c641a769843d00d57b0a51f'),
    ('sssp-bf', 'graphx', 'cap2-cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '104.52824', 8, 18938, 1301, 3830,
         '53bb3d62cdb8a388dd7357f9f23524c81e45ae392944cbf3a3699a67fa6a7ca4'),
    ('sssp-bf', 'graphx', 'noskip'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '117.59505999999999', 11, 69536, 787, 0,
         '4ae5084fb70c296d432e2c01f515c6e2e367e0bbd02c2a62963fb79993ab62ee'),
    ('sssp-bf', 'graphx', 'eager'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '131.34642000000002', 11, 69713, 787, 0,
         'f61e37482fe8298cfb29a8667254e56d2289465576a46cc16e3a1387f5e9fa07'),
    ('sssp-bf', 'graphx', 'crash'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '185.11208000000002', 7, 54894, 4, 0,
         '002a77eaad84304e4ab25c1e589cea6348d390e9446168d0555376cfc2f98ef9'),
    ('sssp-bf', 'graphx', 'crash-degrade'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '437.51669999999996', 11, 68838, 598, 0,
         '040f5c0cb592032b57567e28f1a54ebf5b532ccc1b4cc527d1738ea4132a344f'),
    ('sssp-bf', 'async', 'full'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '140.70844', 7, 53695, 4, 0,
         '37a16d7fcd7e27039397a1f49183866dd5ef230516d283ae538de3e62f4f4522'),
    ('sssp-bf', 'async', 'cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '141.41404', 7, 35344, 1466, 4470,
         '34c178c61a84c8656cb290d678b7380698176ddb15b962002977c5898ca3b043'),
    ('sssp-bf', 'async', 'cap1'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '103.54614000000001', 11, 32989, 4, 0,
         '5eff26ea308a2408ecd6169868976ed078849b798514233468e749f6721a07b3'),
    ('sssp-bf', 'async', 'cap2-cache10'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '113.84152', 9, 25637, 1420, 4016,
         'f8289439e1039121f41de7d28ae21cd8363d797dde04dd9d8ee79fb449167544'),
    ('sssp-bf', 'async', 'noskip'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '140.70844', 7, 53695, 4, 0,
         '37a16d7fcd7e27039397a1f49183866dd5ef230516d283ae538de3e62f4f4522'),
    ('sssp-bf', 'async', 'eager'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '154.7083', 7, 53695, 4, 0,
         'a444c364999ee67dc0e6ba3ac2c8b3c3b6df408f42b9a9870e5577d03583f0e0'),
    ('sssp-bf', 'async', 'crash'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '192.88371999999998', 7, 53695, 4, 0,
         'dc28054edbf8c206843b1250b2dac393c9ebfbfa230e9af087bd899ee57fa481'),
    ('sssp-bf', 'async', 'crash-degrade'):
        ('db0e8496d8fbb251491ab895b336dd8e98057fb9c1e2c48830ce731b3430b9aa',
         '246.91727999999995', 11, 40420, 554, 0,
         '70ac45e1387098645b2a1997241282c543b8469b271d76cf1860ffe51825716b'),
    ('cc', 'powergraph', 'host'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '115.45194000000001', 7, 0, 0, 0,
         'ffa9560a76fecfa98170b63932bd477da9e1b99af957589a1f138d1819ccb13e'),
    ('cc', 'powergraph', 'cap1'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '78.1397', 6, 8463, 2339, 0,
         '51b265cbab6a239d5008052fbb78c97c5b1086f548ca994bb96360c1b5eea050'),
    ('cc', 'powergraph', 'cap2-cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '78.19554000000001', 4, 1916, 3954, 4687,
         'a871fb57eedb01e7a1a7d919e501c3ca1881e1a69decf86692519fa9f8b09323'),
    ('cc', 'powergraph', 'noskip'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '86.5512', 7, 12365, 2031, 0,
         'bb9d36354a8c34cbdadf235814c38d7ee680553f51f183ae4097f11b481d7850'),
    ('cc', 'powergraph', 'eager'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '89.05039999999998', 7, 4516, 3896, 0,
         'e85084dc2de7f53780c3993a896606d9d8f9cbcd2c8214d1a583d1084cd7d0b0'),
    ('cc', 'powergraph', 'crash'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '133.82013999999998', 4, 12696, 2136, 0,
         '98b0ebef49526eef4d41c9da11afe5af876db4d41a510ea3557b84bffe198982'),
    ('cc', 'powergraph', 'crash-degrade'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '132.99177999999998', 4, 12569, 2189, 0,
         '0985d1315774d1c1573c13983ae68ff23a0d1a229e2cd99c73286865cc48f4eb'),
    ('cc', 'graphx', 'host'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '271.45383999999996', 7, 0, 0, 0,
         'a7e1529bcc8652e5c7ab5e3e781ac50ac79ac28a5c923ead26a1a9d37546ae53'),
    ('cc', 'graphx', 'cap1'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '82.36243999999999', 7, 12401, 870, 0,
         '54cff8b9f98ce30735ef7f8aea39b204789141b5e0150226dbb04e6070ce5b1f'),
    ('cc', 'graphx', 'cap2-cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '80.83322', 5, 6332, 1419, 2427,
         '71b1a271c36dcca5077493e600cf980d85977a25665b8d0a98287ec026014b99'),
    ('cc', 'graphx', 'noskip'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '91.44167999999999', 7, 35363, 870, 0,
         '0859bd969d4a47c0837cffebeec3ce576cc140790cabbea42684605200e53ec1'),
    ('cc', 'graphx', 'eager'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '98.8866', 7, 35470, 870, 0,
         '37cf226a2cf18c588cb162e9b7287c322d0bb3a589f0646e00a27d8f351b5b58'),
    ('cc', 'graphx', 'crash'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '139.37048', 5, 19390, 870, 0,
         '16aa900de0ed69c34e14d07739187964b65281e11b817629a2af2d8828672f85'),
    ('cc', 'graphx', 'crash-degrade'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '232.20116', 6, 25663, 1464, 0,
         '2ebec519ded36da76b7a1c8273e9c8638c8f29d9161f7d1c1442a765a6e7cca9'),
    ('cc', 'async', 'full'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '89.02296', 3, 20997, 870, 0,
         '6abdd0f6598798298d3e17eb978d31351fbd234bcaf6c4407ecd02412a90a79e'),
    ('cc', 'async', 'cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '89.96615999999999', 3, 9966, 1744, 3175,
         'c55dd085748d695ebbf93b91e2cb35fd871c695292b77719e5d640cda4bf5dcc'),
    ('cc', 'async', 'cap1'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '82.54019999999998', 7, 12305, 870, 0,
         'e1e092ea5ffedb888c7bb5c7e8f610413384f97083536957879d35570d724026'),
    ('cc', 'async', 'cap2-cache10'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '79.74197999999998', 4, 7097, 1505, 2558,
         '9f7281528e785a3a882295584c8e583558e587e56e97742fc1b83b175dd8a1cc'),
    ('cc', 'async', 'noskip'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '89.02296', 3, 20997, 870, 0,
         '6abdd0f6598798298d3e17eb978d31351fbd234bcaf6c4407ecd02412a90a79e'),
    ('cc', 'async', 'eager'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '95.22222', 3, 21077, 870, 0,
         '67bcd0d18f44093d1bd638f1005883aa9d1c28738e208a1094ff3ebc296e3194'),
    ('cc', 'async', 'crash'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '137.36076', 3, 20997, 870, 0,
         'a073de1b7d41cca9ba5ad07bec909fd3572f6043f7f360c1a5111159e0498510'),
    ('cc', 'async', 'crash-degrade'):
        ('82de827180713639a3be9322173dc668c7ea4797a9357b040db8011d6d810851',
         '139.63978', 3, 20884, 916, 0,
         'ed73201a40015936da5b6e9ea61830700287b81d79bf85e2d84bad902e39435d'),
    ('lp', 'powergraph', 'host'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '287.46502', 5, 0, 0, 0,
         'c840784e72204ae83ca2c94b63ace30516468ddf956383106fbb05eb7e92276a'),
    ('lp', 'powergraph', 'noskip'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '97.58335999999998', 5, 38549, 2031, 0,
         'd250df84fa47bd0d443119a2b4bb7683cef00aba8844a4d1d02991cf046eb8c8'),
    ('lp', 'powergraph', 'eager'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '104.07220000000001', 5, 29437, 4143, 0,
         'a9c7ae8625ea91d047b4b477c329334ff4422091198b898c850d65678194db53'),
    ('lp', 'powergraph', 'crash'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '149.11059999999998', 5, 38549, 2031, 0,
         '98a92cb608a90b40bec602e4244357198bc556701ac87c90f3a3a34e90611fb1'),
    ('lp', 'powergraph', 'crash-degrade'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '269.35276', 5, 22652, 3388, 0,
         '176c146b6b294786661ae1ab8a030dc4ef101680a6a1e225d0795f0a0b55ccf3'),
    ('lp', 'graphx', 'host'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '278.2882199999999', 5, 0, 0, 0,
         'ea66f1a606740d74e7811359f81283208fcc7eda0c75833ac41ab2e274c53f9d'),
    ('lp', 'graphx', 'noskip'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '90.70468000000001', 5, 38585, 870, 0,
         '0afc73c74fb0312e88c8797ddae76e18ce9dca68ced0e09a574ecfacb0f11619'),
    ('lp', 'graphx', 'eager'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '97.90356', 5, 38692, 870, 0,
         '65de51a80e4cd0a7d8611c2857e69c0df6a4c4f313826e72e44fb8358ebed456'),
    ('lp', 'graphx', 'crash'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '142.22832', 5, 38585, 870, 0,
         '13b337d2cd573be9c2925361fe88109fb9405eec0bdf4609b07fd44664149e1b'),
    ('lp', 'graphx', 'crash-degrade'):
        ('201fd0138d1c8a5a10bf5612ac055cadf0211bd2b95ff48e8c03269a51d20dc7',
         '264.18359999999996', 5, 22505, 1464, 0,
         '96d3c5a6923334c6792cab096db3cfc091d48ddbe127ecfc0e66fad21792acc6'),
}


def _plain(value):
    """Numpy scalars as the Python numbers they hold, so a digest does
    not depend on which of the two a field happens to carry."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if hasattr(value, "item") else value


@lru_cache(maxsize=None)
def partition_for(engine: str):
    """Each engine's (deterministic, immutable) partition of GRAPH,
    built once: the greedy vertex cut costs more than a run."""
    cluster = ClusterSpec(nodes=3, gpus_per_node=1).build()
    return EXTRA_ENGINES[engine].build(GRAPH, cluster,
                                       GXPlug(cluster)).pgraph


def observe(algorithm: str, engine: str, config: str):
    """PINS' six fields, then the run's *shape*: SHA-256 over every
    field of every superstep's ``IterationStats`` and the run's cost
    attribution and fault bookkeeping."""
    cluster = ClusterSpec(nodes=3, gpus_per_node=1).build()
    cfg = EXTRA_CONFIGS[config]()
    plug = GXPlug(cluster, cfg) if cfg is not None else None
    alg, cap = ALGORITHMS[algorithm]()
    result = EXTRA_ENGINES[engine](partition_for(engine), cluster,
                                   plug).run(alg, max_iterations=cap)
    values = np.ascontiguousarray(result.values)
    shape = repr((
        [[(f.name, _plain(getattr(s, f.name))) for f in fields(s)]
         for s in result.stats],
        sorted(_plain(list(result.breakdown.items()))),
        result.skipped_iterations, result.rollbacks,
        _plain(result.wasted_ms), _plain(result.degraded_nodes)))
    return (hashlib.sha256(values.tobytes()).hexdigest(),
            repr(result.total_ms), result.iterations,
            sum(s.cache_hits for s in result.stats),
            sum(s.cache_misses for s in result.stats),
            result.cache_evictions,
            hashlib.sha256(shape.encode()).hexdigest())


CELLS = [(a, e, c) for a in ALGORITHMS for e in ENGINES for c in CONFIGS]
EXTRA_CELLS = sorted(EXTRA_PINS)


def candidate_extra_cells():
    """Every (algorithm, engine, config) outside ``CELLS`` that is valid
    and not a repeat: the asynchronous engine runs inside the agents and
    only takes monotone algorithms, and the depth cap is read by the
    combined order only, which only monotone algorithms take."""
    for a in ALGORITHMS:
        monotone = ALGORITHMS[a]()[0].monotone
        for e in EXTRA_ENGINES:
            for c in EXTRA_CONFIGS:
                if (a, e, c) in PINS:
                    continue
                if e == "async" and (c == "host" or not monotone):
                    continue
                if c.startswith("cap") and not monotone:
                    continue
                yield (a, e, c)


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_run_equals_its_pin(cell):
    observed = observe(*cell)
    assert observed[:6] == PINS[cell]
    assert observed[6] == SHAPES[cell]


@pytest.mark.parametrize("cell", EXTRA_CELLS, ids="-".join)
def test_off_grid_run_equals_its_pin(cell):
    assert observe(*cell) == EXTRA_PINS[cell]


def test_every_valid_off_grid_cell_is_pinned():
    assert set(EXTRA_PINS) == set(candidate_extra_cells())


def test_the_bounded_cache_cells_do_evict():
    """The cache10 column is only worth pinning if it thrashes."""
    assert all(PINS[cell][5] > 0 for cell in CELLS if cell[2] == "cache10")
    assert all(PINS[cell][5] == 0 for cell in CELLS if cell[2] == "full")


if __name__ == "__main__":
    print("SHAPES = {")
    for cell in CELLS:
        print(f"    {cell!r}:\n        {observe(*cell)[6]!r},")
    print("}\n\nEXTRA_PINS = {")
    for cell in candidate_extra_cells():
        print(f"    {cell!r}:\n        {observe(*cell)!r},")
    print("}")
