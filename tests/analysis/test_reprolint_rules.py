"""Per-rule fixtures for reprolint.

Every rule gets at least one true-positive snippet (the hazard is
flagged) and one false-positive guard (the idiomatic spelling of the
same job passes). Paths are chosen per-case because several rules are
package-sensitive: RPL005/RPL006 only fire inside the determinism-
critical engine packages.
"""

import pytest

from repro.lint import RULES, lint_source
from repro.lint.engine import LintError
from repro.lint.rules import CRITICAL_PACKAGES, is_critical_path

#: a module path inside a determinism-critical package
SIM = "src/repro/sim/example.py"
#: a module path outside them
TOOL = "src/repro/analysis/example.py"


def codes(source, path=TOOL):
    return [v.code for v in lint_source(source, path)]


class TestRPL001NumpyGlobalRng:
    def test_module_level_call_is_flagged(self):
        source = "import numpy as np\nx = np.random.rand(4)\n"
        assert codes(source) == ["RPL001"]

    def test_seed_call_is_flagged(self):
        source = "import numpy as np\nnp.random.seed(0)\n"
        assert codes(source) == ["RPL001"]

    def test_legacy_from_import_is_flagged(self):
        source = "from numpy.random import randint\n"
        assert codes(source) == ["RPL001"]

    def test_generator_api_passes(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random(4)\n"
        )
        assert codes(source) == []

    def test_numpy_alias_is_resolved(self):
        source = "import numpy\nnumpy.random.shuffle([1, 2])\n"
        assert codes(source) == ["RPL001"]


class TestRPL002StdlibRng:
    def test_import_random_is_flagged(self):
        assert codes("import random\n") == ["RPL002"]

    def test_from_secrets_is_flagged(self):
        assert codes("from secrets import token_bytes\n") == ["RPL002"]

    def test_similarly_named_module_passes(self):
        # the rule matches module roots, not substrings
        assert codes("import randomized_svd_helpers\n") == []
        assert codes("from mypkg.random_walks import walk\n") == []


class TestRPL003UnseededGenerator:
    def test_unseeded_default_rng_is_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(source) == ["RPL003"]

    def test_none_seed_is_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert codes(source) == ["RPL003"]

    def test_unseeded_seed_sequence_is_flagged(self):
        source = "import numpy as np\nss = np.random.SeedSequence()\n"
        assert codes(source) == ["RPL003"]

    def test_unseeded_repro_helper_is_flagged(self):
        source = (
            "from repro.rng import make_generator\n"
            "rng = make_generator()\n"
        )
        assert codes(source) == ["RPL003"]

    def test_seeded_construction_passes(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "ss = np.random.SeedSequence([1, 2])\n"
        )
        assert codes(source) == []

    def test_forwarded_seed_variable_passes(self):
        # passing a seed *variable* is fine; only literal None/empty is
        # unseeded construction
        source = (
            "import numpy as np\n"
            "def build(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert codes(source) == []


class TestRPL004SeedArithmetic:
    def test_seed_plus_one_is_flagged(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(seed + 1)\n"
        )
        assert codes(source) == ["RPL004"]

    def test_attribute_seed_arithmetic_is_flagged(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(args.seed + 2)\n"
        )
        assert codes(source) == ["RPL004"]

    def test_scaled_seed_is_flagged(self):
        source = (
            "import numpy as np\n"
            "ss = np.random.SeedSequence(1000 * seed + trial)\n"
        )
        assert codes(source) == ["RPL004"]

    def test_seed_keyword_of_any_call_is_flagged(self):
        source = "results = run_trials(make, seed=base_seed + 3)\n"
        assert codes(source) == ["RPL004"]

    def test_spawn_derivation_passes(self):
        source = (
            "import numpy as np\n"
            "a, b = np.random.SeedSequence(seed).spawn(2)\n"
            "rng = np.random.default_rng(a)\n"
        )
        assert codes(source) == []

    def test_tuple_seed_composition_passes(self):
        # entropy composition via a tuple is spawn-equivalent, not
        # arithmetic: SeedSequence hashes each component independently
        source = "results = run_trials(make, seed=(args.seed, index))\n"
        assert codes(source) == []

    def test_arithmetic_away_from_seeds_passes(self):
        source = "total = count + 1\n"
        assert codes(source) == []


class TestRPL005WallClock:
    def test_time_time_in_sim_is_flagged(self):
        source = "import time\nstamp = time.time()\n"
        assert codes(source, SIM) == ["RPL005"]

    def test_datetime_now_in_sim_is_flagged(self):
        source = (
            "from datetime import datetime\n"
            "stamp = datetime.now()\n"
        )
        assert codes(source, SIM) == ["RPL005"]

    def test_os_urandom_in_sim_is_flagged(self):
        source = "import os\nblob = os.urandom(8)\n"
        assert codes(source, SIM) == ["RPL005"]

    def test_time_sleep_passes(self):
        # pacing (retry backoff) never feeds engine state
        source = "import time\ntime.sleep(0.1)\n"
        assert codes(source, SIM) == []

    def test_wall_clock_outside_critical_packages_passes(self):
        source = "import time\nstamp = time.time()\n"
        assert codes(source, TOOL) == []


class TestRPL006UnorderedIteration:
    def test_set_call_iteration_in_sim_is_flagged(self):
        source = "for player in set(players):\n    handle(player)\n"
        assert codes(source, SIM) == ["RPL006"]

    def test_set_literal_iteration_in_sim_is_flagged(self):
        source = "for kind in {'vote', 'report'}:\n    handle(kind)\n"
        assert codes(source, SIM) == ["RPL006"]

    def test_comprehension_over_set_is_flagged(self):
        source = "out = [f(x) for x in set(items)]\n"
        assert codes(source, SIM) == ["RPL006"]

    def test_sorted_set_passes(self):
        source = "for player in sorted(set(players)):\n    handle(player)\n"
        assert codes(source, SIM) == []

    def test_membership_test_passes(self):
        # building/consulting a set is fine; only *iteration* order is a
        # hazard
        source = (
            "seen = set(players)\n"
            "if 3 in seen:\n"
            "    handle(3)\n"
        )
        assert codes(source, SIM) == []

    def test_outside_critical_packages_passes(self):
        source = "for player in set(players):\n    handle(player)\n"
        assert codes(source, TOOL) == []


class TestRPL007MutableDefault:
    def test_list_default_is_flagged(self):
        assert codes("def f(items=[]):\n    return items\n") == ["RPL007"]

    def test_dict_call_default_is_flagged(self):
        assert codes("def f(table=dict()):\n    return table\n") == [
            "RPL007"
        ]

    def test_kwonly_mutable_default_is_flagged(self):
        assert codes("def f(*, items=[]):\n    return items\n") == [
            "RPL007"
        ]

    def test_none_default_passes(self):
        source = (
            "def f(items=None):\n"
            "    return [] if items is None else items\n"
        )
        assert codes(source) == []

    def test_immutable_defaults_pass(self):
        assert codes("def f(k=3, name='x', pair=(1, 2)):\n    pass\n") == []


class TestRPL008BatchedScalarRng:
    def test_self_rng_in_batched_subclass_is_flagged(self):
        source = (
            "from repro.strategies.batched import BatchedStrategy\n"
            "class BatchedThing(BatchedStrategy):\n"
            "    def choose_probes_batch(self, round_no, lanes, a, v):\n"
            "        return [self.rng.integers(4) for _ in lanes]\n"
        )
        assert codes(source) == ["RPL008"]

    def test_batched_name_without_base_is_flagged(self):
        source = (
            "class BatchedCustom:\n"
            "    def step(self):\n"
            "        return self.rng.random()\n"
        )
        assert codes(source) == ["RPL008"]

    def test_per_lane_streams_pass(self):
        source = (
            "from repro.strategies.batched import BatchedStrategy\n"
            "class BatchedThing(BatchedStrategy):\n"
            "    def reset_lanes(self, contexts, rngs):\n"
            "        self._rngs = list(rngs)\n"
            "    def choose_probes_batch(self, round_no, lanes, a, v):\n"
            "        return [self._rngs[k].integers(4) for k in lanes]\n"
        )
        assert codes(source) == []

    def test_scalar_class_self_rng_passes(self):
        # scalar strategies own exactly one stream; self.rng is correct
        source = (
            "class Thing:\n"
            "    def act(self):\n"
            "        return self.rng.random()\n"
        )
        assert codes(source) == []

    def test_per_lane_adapter_passes(self):
        # PerLane* adapters wrap one scalar instance per lane; the
        # scalar instances' self.rng is that lane's pinned stream
        source = (
            "from repro.adversaries.batched import PerLaneAdversary\n"
            "class BatchedPerLaneCustom(PerLaneAdversary):\n"
            "    def tweak(self):\n"
            "        return self.rng\n"
        )
        assert codes(source) == []


class TestRPL009Suppressions:
    def test_reasoned_suppression_silences_the_violation(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro: noqa=RPL003(interactive default)\n"
        )
        assert codes(source) == []

    def test_suppression_without_reason_is_flagged(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: noqa=RPL003\n"
        )
        # the bare directive does not suppress, and is itself flagged
        assert sorted(codes(source)) == ["RPL003", "RPL009"]

    def test_empty_reason_is_flagged(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: noqa=RPL003()\n"
        )
        assert sorted(codes(source)) == ["RPL003", "RPL009"]

    def test_unknown_code_is_flagged(self):
        source = "x = 1  # repro: noqa=RPL999(made up)\n"
        assert codes(source) == ["RPL009"]

    def test_suppression_only_covers_its_own_code(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(seed + 1)  "
            "# repro: noqa=RPL003(wrong code for this hazard)\n"
        )
        assert codes(source) == ["RPL004"]

    def test_multiple_codes_on_one_line(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro: noqa=RPL003(default), RPL001(not numpy-legacy)\n"
        )
        assert codes(source) == []


class TestInfrastructure:
    def test_every_rule_has_fixture_coverage(self):
        # this module keeps one test class per per-file rule code; the
        # cross-file families are covered (positive + negative + noqa)
        # in test_reprolint_project.py
        per_file = {
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
            "RPL006", "RPL007", "RPL008", "RPL009",
        }
        cross_file = {"RPL011", "RPL012", "RPL013"}
        assert per_file | cross_file == set(RULES)

    def test_rules_carry_code_summary_and_hint(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.summary
            assert rule.hint

    def test_critical_path_detection(self):
        assert is_critical_path("src/repro/sim/engine.py")
        assert is_critical_path("src/repro/billboard/votes.py")
        assert not is_critical_path("src/repro/analysis/stats.py")
        assert not is_critical_path("tests/test_cli.py")
        # a *file* named like a package is not inside the package
        assert not is_critical_path("sim")
        assert set(CRITICAL_PACKAGES) == {
            "sim", "billboard", "adversaries", "strategies", "faults",
        }

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n", "bad.py")

    def test_violations_are_position_sorted(self):
        source = (
            "import random\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        violations = lint_source(source, TOOL)
        assert [v.code for v in violations] == ["RPL002", "RPL003"]
        assert violations[0].line < violations[1].line

    def test_select_restricts_rules(self):
        source = (
            "import random\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        only = lint_source(source, TOOL, select=["RPL003"])
        assert [v.code for v in only] == ["RPL003"]

    def test_select_rejects_unknown_codes(self):
        with pytest.raises(ValueError):
            lint_source("x = 1\n", TOOL, select=["RPL777"])
