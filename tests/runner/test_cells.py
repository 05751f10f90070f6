"""Cell model and cache-key derivation."""

import pytest

from repro.errors import RunnerError
from repro.runner import Cell, cell_config, cell_key


def key(cell, options):
    return cell_key(cell, options)


class TestCellValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(RunnerError):
            Cell(kind="quantum")

    def test_unknown_config_name_rejected(self):
        with pytest.raises(RunnerError):
            Cell(kind="trace", config_name="overclocked")

    def test_label_is_human_readable(self):
        cell = Cell(kind="trace", workload="oltp", prefetcher="domino", degree=1)
        assert cell.label == "trace:oltp:domino:d1"


class TestCellConfig:
    def test_default_config_is_table1(self):
        assert cell_config(Cell(kind="trace")).llc.size_bytes == 4 * 1024 * 1024

    def test_timing_config_scales_llc(self):
        cfg = cell_config(Cell(kind="multicore", config_name="timing"))
        assert cfg.llc.size_bytes == 256 * 1024

    def test_overrides_applied(self):
        cell = Cell(kind="trace", overrides=(("ht_entries", 1 << 14),))
        assert cell_config(cell).ht_entries == 1 << 14


class TestCellKey:
    def test_same_inputs_same_key(self, tiny_options):
        a = Cell(kind="trace", workload="oltp", prefetcher="domino", degree=1)
        b = Cell(kind="trace", workload="oltp", prefetcher="domino", degree=1)
        assert key(a, tiny_options) == key(b, tiny_options)

    def test_key_is_hex_sha256(self, tiny_options):
        k = key(Cell(kind="opportunity", workload="oltp"), tiny_options)
        assert len(k) == 64
        int(k, 16)

    @pytest.mark.parametrize("change", [
        dict(prefetcher="stms"),
        dict(workload="web_apache"),
        dict(degree=4),
        dict(kind="opportunity", prefetcher="", degree=None),
        dict(overrides=(("ht_entries", 1 << 14),)),
        dict(params=(("table_bits", 8),)),
    ])
    def test_any_cell_change_changes_key(self, tiny_options, change):
        base = dict(kind="trace", workload="oltp", prefetcher="domino", degree=1)
        assert (key(Cell(**base), tiny_options)
                != key(Cell(**{**base, **change}), tiny_options))

    @pytest.mark.parametrize("change", [
        dict(n_accesses=7000),
        dict(warmup_frac=0.25),
        dict(seed=8),
    ])
    def test_any_option_change_changes_key(self, tiny_options, change):
        cell = Cell(kind="trace", workload="oltp", prefetcher="domino", degree=1)
        assert (key(cell, tiny_options)
                != key(cell, tiny_options.scaled(**change)))

    def test_default_degree_resolves_from_options(self, tiny_options):
        """degree=None must hash as the sweep default, not collide
        across sweeps with different defaults."""
        cell = Cell(kind="trace", workload="oltp", prefetcher="domino")
        explicit = Cell(kind="trace", workload="oltp", prefetcher="domino",
                        degree=tiny_options.degree)
        assert key(cell, tiny_options) == key(explicit, tiny_options)
        assert (key(cell, tiny_options)
                != key(cell, tiny_options.scaled(degree=1)))

    def test_timing_cell_degree_resolves_from_options(self, tiny_options):
        """A timing cell runs at the sweep degree, so it must key on it."""
        cell = Cell(kind="timing", workload="oltp", prefetcher="domino",
                    config_name="timing")
        explicit = Cell(kind="timing", workload="oltp", prefetcher="domino",
                        config_name="timing", degree=1)
        assert (key(cell, tiny_options)
                != key(cell, tiny_options.scaled(degree=1)))
        assert key(cell, tiny_options.scaled(degree=1)) == key(explicit, tiny_options)

    def test_opportunity_cells_are_degree_independent(self, tiny_options):
        cell = Cell(kind="opportunity", workload="oltp")
        assert (key(cell, tiny_options)
                == key(cell, tiny_options.scaled(degree=1)))

    def test_table1_ignores_trace_options(self, tiny_options):
        cell = Cell(kind="table1")
        assert (key(cell, tiny_options)
                == key(cell, tiny_options.scaled(n_accesses=99, seed=0)))

    def test_workload_list_does_not_enter_key(self, tiny_options):
        """fig sweeps over different workload subsets share cells."""
        cell = Cell(kind="trace", workload="oltp", prefetcher="domino", degree=1)
        wider = tiny_options.scaled(workloads=("oltp", "web_apache"))
        assert key(cell, tiny_options) == key(cell, wider)

    def test_unserialisable_override_rejected(self, tiny_options):
        cell = Cell(kind="trace", workload="oltp", prefetcher="domino",
                    overrides=(("ht_entries", object()),))
        with pytest.raises(RunnerError):
            key(cell, tiny_options)


class TestL1FilterKey:
    def test_stable_and_hex(self, tiny_options):
        from repro.config import SystemConfig
        from repro.runner.cells import l1_filter_key

        cfg = SystemConfig()
        k = l1_filter_key("oltp", tiny_options, cfg)
        assert k == l1_filter_key("oltp", tiny_options, cfg)
        assert len(k) == 64
        int(k, 16)

    def test_trace_identity_enters_key(self, tiny_options):
        from repro.config import SystemConfig
        from repro.runner.cells import l1_filter_key

        cfg = SystemConfig()
        base = l1_filter_key("oltp", tiny_options, cfg)
        assert l1_filter_key("web_apache", tiny_options, cfg) != base
        assert l1_filter_key("oltp", tiny_options.scaled(n_accesses=999),
                             cfg) != base
        assert l1_filter_key("oltp", tiny_options.scaled(seed=99), cfg) != base
        assert l1_filter_key("oltp", tiny_options, cfg,
                             window=(100, 6000)) != base

    def test_fastpath_version_enters_key(self, tiny_options, monkeypatch):
        # Bumping FASTPATH_VERSION must move every filter key, so
        # artifacts of the previous version miss and are rebuilt.
        from repro.config import SystemConfig
        from repro.runner.cells import l1_filter_key
        from repro.sim import fastpath

        cfg = SystemConfig()
        current = l1_filter_key("oltp", tiny_options, cfg)
        monkeypatch.setattr(fastpath, "FASTPATH_VERSION",
                            fastpath.FASTPATH_VERSION - 1)
        assert l1_filter_key("oltp", tiny_options, cfg) != current

    def test_l1_geometry_enters_key(self, tiny_options):
        from repro.config import SystemConfig, small_test_config
        from repro.runner.cells import l1_filter_key

        assert (l1_filter_key("oltp", tiny_options, SystemConfig())
                != l1_filter_key("oltp", tiny_options, small_test_config()))

    def test_prefetcher_irrelevant_knobs_do_not_enter_key(self, tiny_options):
        """The whole point: one filter serves every prefetcher/degree."""
        from repro.config import SystemConfig
        from repro.runner.cells import l1_filter_key

        cfg = SystemConfig()
        assert (l1_filter_key("oltp", tiny_options, cfg)
                == l1_filter_key("oltp", tiny_options.scaled(degree=8), cfg)
                == l1_filter_key("oltp", tiny_options.scaled(
                    warmup_frac=0.5), cfg))

    def test_distinct_from_cell_keys(self, tiny_options):
        from repro.config import SystemConfig
        from repro.runner.cells import l1_filter_key

        cell = Cell(kind="trace", workload="oltp", prefetcher="domino", degree=1)
        assert (l1_filter_key("oltp", tiny_options, SystemConfig())
                != key(cell, tiny_options))
