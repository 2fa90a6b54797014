"""Tests of the pass-pipeline layer: script parsing, the registry, execution
timing, flow re-implementation, and pipeline jobs in the orchestrator."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.flows import baseline_pipeline, emorphic_pipeline
from repro.flows.baseline import BaselineConfig
from repro.flows.emorphic import EmorphicConfig
from repro.orchestrate import make_job, make_pipeline_job, run_campaign, run_job, run_pipeline_sweep
from repro.pipeline import (
    Pipeline,
    PipelineError,
    Step,
    available_passes,
    fig9_breakdown,
    parse_script,
    pass_table,
    resolve_pass,
)
from repro.pipeline.values import render_value
from repro.verify.cec import check_equivalence

#: Configs the recipe round-trip and job-identity tests cover.
RECIPE_CONFIGS = {
    "paper": EmorphicConfig,
    "fast": EmorphicConfig.fast,
    "ml": lambda: EmorphicConfig(use_ml_model=True),
    "no_budget": lambda: EmorphicConfig(verify_conflict_budget=None),
    "no_choices": lambda: EmorphicConfig(baseline=BaselineConfig(use_choices=False)),
}

#: The Fig. 9 phase tags each recipe's steps carried before the split was
#: read off pass names (the baseline's two tags, ``sop_balance`` and
#: ``dch_map``, both name ABC-flow rounds), and the fold of those tags into
#: the three buckets; ``verification`` was not plotted.
PHASE_TAGS = {
    "baseline": {"strash": "sop_balance", "sop_balance": "sop_balance", "map": "dch_map"},
    "emorphic": {
        "strash": "tech_independent",
        "sop_balance": "tech_independent",
        "premap": "tech_independent",
        "dag2eg": "conversion",
        "saturate": "rewriting",
        "extract": "extraction",
        "map": "final_map",
        "cec": "verification",
    },
}
PHASE_BUCKETS = {
    "sop_balance": "abc_flow",
    "dch_map": "abc_flow",
    "tech_independent": "abc_flow",
    "final_map": "abc_flow",
    "conversion": "egraph_conversion",
    "rewriting": "egraph_conversion",
    "extraction": "sa_extraction",
    "verification": None,
}


def phase_tag_split(recipe, pass_runtimes):
    """The Fig. 9 buckets of a run of ``recipe``, through its phase tags."""
    buckets = {"abc_flow": 0.0, "egraph_conversion": 0.0, "sa_extraction": 0.0}
    for name, seconds in pass_runtimes:
        bucket = PHASE_BUCKETS[PHASE_TAGS[recipe][name]]
        if bucket is not None:
            buckets[bucket] += seconds
    return buckets


def _walk(nodes):
    """Every node of a span forest, depth first."""
    for node in nodes:
        yield node
        yield from _walk(node["children"])


#: The acceptance-criteria script, scaled down for test runtime.
FAST_EMORPHIC_SCRIPT = (
    "st; sopb; dag2eg; saturate(iters=2, max_nodes=4000); "
    "extract(sa, threads=1, iters=1, moves=1); map"
)

#: ``extract`` parameters no extraction can honour, with the error naming
#: the allowed values.
UNHONOURABLE_EXTRACT_PARAMS = {
    "cost=dept": "unknown extraction cost 'dept'; choose from depth, nodes",
    "threads=0": "threads >= 1",
    "iters=-1": "iters >= 0",
    "moves=-1": "moves >= 0",
    "migrate_every=-1": "migrate_every >= 0",
}

#: ``extract`` parameters only the chain portfolio reads, at values other
#: than their defaults: greedy and random extraction used to ignore them.
SA_ONLY_EXTRACT_PARAMS = ["use_ml=true", "threads=9", "iters=2", "moves=8", "migrate_every=5"]

#: Staged ``extract`` parameters windows used to drop silently: the
#: ``portfolio round`` spans each window must run with 16 moves per chain.
STAGED_EXTRACT_PARAMS = {
    "migrate_every=1": 16,
    "migrate_every=64": 1,
}

#: Retired pass parameters: a script naming one fails as an unknown
#: parameter, whole or staged after ``partition``.
REMOVED_PARAM_STATEMENTS = [
    "extract(sa, engine=legacy)",
    "extract(sa, p_random=0.2)",
    "extract(sa, chains=2)",
    "extract(sa, workers=2)",
    "map(cleanup=false)",
    "map(keep_premap=false)",
]

#: ``saturate`` budgets no saturation can honour, with the error naming the
#: allowed range.
UNHONOURABLE_SATURATE_PARAMS = {
    "iters=-1": "iters >= 0",
    "max_nodes=-5": "max_nodes >= 0",
    "time_limit=-1": "time_limit >= 0",
}

#: Cut-based pass parameters no pass can honour (each used to run as a
#: no-op, or to fail with a bare ``ValueError`` inside cut enumeration),
#: with the error naming the allowed range.
UNHONOURABLE_CUT_PARAMS = {
    "rewrite(k=9)": "rewrite needs k in 2..8",
    "refactor(k=9)": "refactor needs k in 2..8",
    "sop_balance(k=9)": "sop_balance needs k in 2..8",
    "sop_balance(k=1)": "sop_balance needs k in 2..8",
    "sop_balance(cut_limit=0)": "sop_balance needs cut_limit >= 1",
    "sop_balance(cut_limit=-2)": "sop_balance needs cut_limit >= 1",
    "rewrite(cut_limit=-1)": "rewrite needs cut_limit >= 1",
    "delay_opt(rounds=-1)": "delay_opt needs rounds >= 0",
    "delay_opt(k=1)": "delay_opt needs k in 2..8",
    "map(use_choices=true, choice_sat_budget=-1)": "map needs choice_sat_budget >= 0",
    "map(use_choices=true, choice_max_pairs=-1)": "map needs choice_max_pairs >= 0",
}
UNHONOURABLE_CEC_PARAMS = {
    "cec(sim_words=-3)": "cec needs sim_words >= 0",
    "cec(conflict_budget=-1)": "cec needs conflict_budget >= 0",
}


class TestScriptParsing:
    def test_basic_statements_and_aliases(self):
        steps = parse_script("st; b; rw; rf; sopb")
        assert [name for name, _ in steps] == ["strash", "balance", "rewrite", "refactor", "sop_balance"]

    def test_positional_and_keyword_arguments(self):
        steps = parse_script("extract(sa, threads=2); saturate(iters=4, time_limit=2.5)")
        assert steps[0] == ("extract", {"method": "sa", "threads": 2})
        assert steps[1] == ("saturate", {"iters": 4, "time_limit": 2.5})

    def test_value_coercion(self):
        (name, params), = parse_script("rewrite(zero_gain=true, k=4)")
        assert params["zero_gain"] is True and params["k"] == 4

    def test_comments_whitespace_and_trailing_semicolons(self):
        steps = parse_script("st;\n# a comment\n  sopb() ;\n")
        assert [name for name, _ in steps] == ["strash", "sop_balance"]

    def test_unknown_pass_lists_available_names(self):
        with pytest.raises(PipelineError) as excinfo:
            parse_script("st; frobnicate")
        assert "unknown pass 'frobnicate'" in str(excinfo.value)
        assert "strash" in str(excinfo.value)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(PipelineError, match="no parameter 'bogus'"):
            parse_script("saturate(bogus=1)")

    def test_excess_positional_rejected(self):
        with pytest.raises(PipelineError, match="positional"):
            parse_script("extract(sa, greedy)")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(PipelineError, match="twice"):
            parse_script("saturate(iters=1, iters=2)")

    def test_malformed_syntax_rejected(self):
        for bad in ("st(", "st)", "st; !", "saturate(iters=)", ""):
            with pytest.raises(PipelineError):
                parse_script(bad)


class TestPipelineSerialization:
    def test_script_round_trip_is_canonical(self):
        pipeline = Pipeline.from_script(FAST_EMORPHIC_SCRIPT)
        canonical = pipeline.to_script()
        assert Pipeline.from_script(canonical) == pipeline
        # Canonicalization is a fixed point.
        assert Pipeline.from_script(canonical).to_script() == canonical

    def test_spec_round_trip_through_json(self):
        pipeline = Pipeline.from_script(FAST_EMORPHIC_SCRIPT)
        spec = json.loads(json.dumps(pipeline.to_spec()))
        assert Pipeline.from_spec(spec) == pipeline
        # A bare script string is also an accepted spec.
        assert Pipeline.from_spec({"script": FAST_EMORPHIC_SCRIPT}) == pipeline

    def test_spelling_variants_normalize_identically(self):
        a = Pipeline.from_script("st; sopb(k=6); extract(sa)" .replace("extract(sa)", "dag2eg"))
        b = Pipeline.from_script("strash ; sop_balance( k = 6 ) ; dag2eg")
        assert a == b and a.to_spec() == b.to_spec()

    def test_programmatic_steps_match_parsed_steps(self):
        built = Pipeline([Step.make("strash"), Step.make("saturate", {"iters": 2})])
        parsed = Pipeline.from_script("st; saturate(iters=2)")
        assert built.to_script() == parsed.to_script()

    def test_default_equal_params_are_dropped(self):
        assert Pipeline.from_script("saturate(iters=5)") == Pipeline.from_script("saturate")
        assert Pipeline.from_script("dag2eg; extract(sa)") == Pipeline.from_script("dag2eg; extract")

    def test_numeric_types_normalize_to_the_default_type(self):
        a = Pipeline.from_script("saturate(time_limit=30)")
        b = Pipeline.from_script("saturate(time_limit=30.0)")
        assert a == b and a.to_spec() == b.to_spec()
        assert Pipeline.from_script("saturate(iters=2.0)") == Pipeline.from_script("saturate(iters=2)")

    def test_none_values_round_trip(self):
        pipeline = Pipeline.from_script("cec(conflict_budget=none)")
        assert Pipeline.from_script(pipeline.to_script()) == pipeline
        assert pipeline.steps[0].param_dict == {"conflict_budget": None}

    def test_pass_signatures_are_valid_script_syntax(self):
        for spec in pass_table():
            prefix = "dag2eg; " if spec.requires_egraph else ""
            parsed = Pipeline.from_script(prefix + spec.signature())
            assert parsed.steps[-1].pass_name == spec.name
            # Defaults written out explicitly normalize away entirely.
            assert parsed.steps[-1].params == ()

    @pytest.mark.parametrize("recipe", ["baseline", "emorphic"])
    @pytest.mark.parametrize("config", list(RECIPE_CONFIGS), ids=list(RECIPE_CONFIGS))
    def test_recipes_round_trip_as_scripts(self, recipe, config):
        config = RECIPE_CONFIGS[config]()
        if recipe == "baseline":
            pipeline = baseline_pipeline(config.baseline)
        else:
            pipeline = emorphic_pipeline(config)
        assert pipeline.to_spec() == {"script": pipeline.to_script()}
        assert Pipeline.from_spec(json.loads(json.dumps(pipeline.to_spec()))) == pipeline

    def test_invalid_step_params_rejected_at_build_time(self):
        with pytest.raises(PipelineError):
            Step.make("strash", {"bogus": 1})
        with pytest.raises(PipelineError):
            Pipeline([])


class TestRegistry:
    def test_every_pass_is_resolvable_and_documented(self):
        for spec in pass_table():
            assert resolve_pass(spec.name) is spec
            assert spec.summary
            for alias in spec.aliases:
                assert resolve_pass(alias) is spec

    def test_registry_covers_the_flow_vocabulary(self):
        names = set(available_passes())
        assert {
            "strash", "balance", "rewrite", "refactor", "sop_balance",
            "dag2eg", "saturate", "extract", "map", "premap", "cec",
        } <= names

    @pytest.mark.parametrize("name", [spec.name for spec in pass_table()])
    def test_every_pass_runs_on_a_small_aig(self, name, small_adder):
        """Registry completeness: each pass executes (with prerequisites) and
        transforms preserve equivalence."""
        spec = resolve_pass(name)
        prefix = ""
        if spec.requires_egraph:
            prefix = "dag2eg; saturate(iters=1, max_nodes=2000); "
        elif name == "map":
            # Exercise the candidate-mapping path, not just direct mapping.
            prefix = "dag2eg; saturate(iters=1, max_nodes=2000); extract(greedy); "
        elif name == "stitch":
            # stitch consumes the plan a preceding partition pass parks.
            prefix = "partition(k=30); saturate(iters=1, max_nodes=2000); extract(greedy); "
        script = f"{prefix}{name}"
        ctx = Pipeline.from_script(script).run(small_adder)
        assert ctx.aig.num_pos == small_adder.num_pos
        if spec.kind in ("transform", "extract", "map"):
            assert check_equivalence(small_adder, ctx.aig).equivalent

    def test_dsl_doc_pass_table_matches_registry(self):
        """Every row of the pass table in docs/dsl.md lists exactly the
        registry's parameters, each with its registry default."""
        doc = (Path(__file__).resolve().parents[1] / "docs" / "dsl.md").read_text()
        rows = {}
        for line in doc.splitlines():
            match = re.match(r"\| `(\w+)` \|[^|]*\|[^|]*\|(.*)\|\s*$", line)
            if match:
                spans = re.findall(r"`([^`]*)`", match.group(2))
                tokens = [t.strip() for span in spans for t in span.split(",") if "=" in t]
                rows[match.group(1)] = dict(token.split("=", 1) for token in tokens)
        assert set(rows) == set(available_passes())
        for spec in pass_table():
            assert set(rows[spec.name]) == set(spec.params), spec.name
            for name, default in spec.params.items():
                assert rows[spec.name][name] == render_value(default), (spec.name, name)

    def test_egraph_passes_fail_cleanly_without_dag2eg(self, small_adder):
        with pytest.raises(PipelineError, match="dag2eg"):
            Pipeline.from_script("saturate").run(small_adder)

    def test_transforms_invalidate_the_egraph(self, small_adder):
        with pytest.raises(PipelineError, match="dag2eg"):
            Pipeline.from_script("dag2eg; b; saturate").run(small_adder)


class TestPipelineExecution:
    @pytest.fixture(scope="class")
    def run_result(self, small_adder):
        return Pipeline.from_script(FAST_EMORPHIC_SCRIPT).run_flow(small_adder)

    def test_end_to_end_produces_mapping_and_equivalence(self, run_result, small_adder):
        assert run_result.mapping is not None
        assert run_result.mapping.delay > 0 and run_result.mapping.area > 0
        assert check_equivalence(small_adder, run_result.aig).equivalent

    def test_per_pass_timings_cover_every_step_and_sum_to_total(self, run_result):
        pipeline = Pipeline.from_script(FAST_EMORPHIC_SCRIPT)
        assert [name for name, _ in run_result.pass_runtimes] == [
            step.pass_name for step in pipeline.steps
        ]
        total_pass_time = sum(seconds for _, seconds in run_result.pass_runtimes)
        # No cec in the script, so the Fig. 9 buckets cover every pass.
        assert sum(run_result.runtime_breakdown().values()) == pytest.approx(total_pass_time)
        # Pass time accounts for (almost) all of the wall-clock runtime.
        assert total_pass_time <= run_result.runtime
        assert total_pass_time >= 0.5 * run_result.runtime

    def test_result_to_dict_is_json_ready(self, run_result):
        data = json.loads(json.dumps(run_result.to_dict()))
        assert data["flow"] == "pipeline"
        assert data["delay"] > 0 and data["area"] > 0
        assert data["metrics"]["num_candidates"] >= 1

    def test_hooks_fire_in_step_order(self, small_adder):
        events = []
        Pipeline.from_script("st; b; rw").run(
            small_adder,
            on_pass_start=lambda name, ctx: events.append(("start", name)),
            on_pass_end=lambda name, ctx, seconds: events.append(("end", name)),
        )
        assert events == [
            ("start", "strash"), ("end", "strash"),
            ("start", "balance"), ("end", "balance"),
            ("start", "rewrite"), ("end", "rewrite"),
        ]

    def test_contexts_share_the_default_library(self, small_adder):
        from repro.costmodel.abc_cost import MappingCostModel
        from repro.mapping.library import default_library

        assert Pipeline.from_script("st").run(small_adder).library is default_library()
        assert MappingCostModel().library is default_library()

    def test_unmapped_pipeline_has_no_qor_keys(self, small_adder):
        result = Pipeline.from_script("st; b").run_flow(small_adder)
        data = result.to_dict()
        assert "delay" not in data and "area" not in data
        assert data["levels"] > 0

    @pytest.mark.parametrize("use_ml", [False, True])
    def test_extract_use_ml_trains_a_default_model(self, small_mem_ctrl, use_ml):
        """extract(use_ml=true) must actually use a learned evaluator even
        when no model instance was handed to the run, and the default model
        is bound before the first pass starts, so no pass time carries its
        training."""
        flag = "true" if use_ml else "false"
        script = (
            "st; dag2eg; saturate(iters=1, max_nodes=2000); "
            f"extract(sa, threads=1, iters=1, moves=1, use_ml={flag}); map"
        )
        models = []
        result = Pipeline.from_script(script).run_flow(
            small_mem_ctrl, on_pass_start=lambda name, ctx: models.append(ctx.ml_model)
        )
        assert result.metrics["extraction_evaluator"] == ("ml" if use_ml else "mapping")
        assert result.mapping is not None
        assert (models[0] is not None) == use_ml
        assert all(model is models[0] for model in models)


class TestFlowsAsPipelines:
    def test_baseline_pipeline_matches_recipe(self):
        pipeline = baseline_pipeline(BaselineConfig(sop_rounds=1, map_rounds=1, use_choices=False))
        names = [step.pass_name for step in pipeline.steps]
        assert names == ["strash", "strash", "sop_balance", "strash", "map"]

    def test_emorphic_pipeline_passes_feed_fig9_buckets(self):
        names = [step.pass_name for step in emorphic_pipeline(EmorphicConfig.fast()).steps]
        assert fig9_breakdown([(name, 1.0) for name in names]) == {
            "abc_flow": 8.0,  # four strash, two sop_balance, premap, map
            "egraph_conversion": 2.0,  # dag2eg, saturate
            "sa_extraction": 1.0,
        }
        assert "cec" not in names  # fast() skips CEC
        assert "cec" in [step.pass_name for step in emorphic_pipeline(EmorphicConfig()).steps]

    @pytest.mark.parametrize("recipe", ["baseline", "emorphic"])
    def test_runtime_breakdown_is_the_phase_tag_split(self, recipe, small_mem_ctrl):
        """The Fig. 9 split read off pass names is the split the recipes'
        phase tags used to give, on the same run's pass runtimes."""
        from repro.flows import run_baseline_flow, run_emorphic_flow

        config = EmorphicConfig.fast()
        config.verify = True  # the final CEC is tagged but not plotted
        if recipe == "baseline":
            result = run_baseline_flow(small_mem_ctrl, config.baseline)
        else:
            result = run_emorphic_flow(small_mem_ctrl, config)
        assert result.runtime_breakdown() == phase_tag_split(recipe, result.pass_runtimes)

    def test_flow_results_carry_pass_runtimes(self, small_mem_ctrl):
        from repro.flows import run_baseline_flow

        result = run_baseline_flow(small_mem_ctrl, BaselineConfig(use_choices=False))
        assert result.pass_runtimes
        assert sum(result.runtime_breakdown().values()) == pytest.approx(
            sum(seconds for _, seconds in result.pass_runtimes)
        )
        assert sum(result.runtime_breakdown().values()) <= result.runtime


class TestOneExtractor:
    """The portfolio is the only extractor; removing the legacy SA loop and
    its knobs moved no canonical flow."""

    def test_canonical_flow_scripts_unchanged(self):
        assert emorphic_pipeline(EmorphicConfig()).to_script() == (
            "strash; strash; sop_balance; strash; sop_balance; strash; premap; dag2eg; "
            "saturate; extract(migrate_every=8); map(use_choices=true); cec"
        )
        assert emorphic_pipeline(EmorphicConfig.fast()).to_script() == (
            "strash; strash; sop_balance; strash; sop_balance; strash; premap; dag2eg; "
            "saturate(iters=4, max_nodes=12000, time_limit=10.0); "
            "extract(iters=3, migrate_every=8, moves=2, threads=2); map"
        )

    def test_config_loads_payloads_with_retired_extraction_fields(self):
        payload = EmorphicConfig(seed=3).to_dict()
        payload.update(
            extraction_engine="portfolio", p_random=0.1, initial_temperature=2000.0, pruned=True
        )
        config = EmorphicConfig.from_dict(payload)
        assert config.to_dict() == EmorphicConfig(seed=3).to_dict()

    @pytest.mark.parametrize("statement", REMOVED_PARAM_STATEMENTS)
    @pytest.mark.parametrize(
        "template",
        ["dag2eg; {}", "st; partition(k=30); {}; stitch"],
        ids=["whole", "staged"],
    )
    def test_removed_params_rejected(self, template, statement, small_adder):
        with pytest.raises(PipelineError, match="has no parameter"):
            Pipeline.from_script(template.format(statement)).run_flow(small_adder)

    @pytest.mark.parametrize("param", list(UNHONOURABLE_EXTRACT_PARAMS))
    @pytest.mark.parametrize(
        "template",
        ["dag2eg; extract(sa, {})", "st; partition(k=30); extract(sa, {}); stitch"],
        ids=["whole", "staged"],
    )
    def test_unhonourable_extract_params_rejected(self, template, param, small_adder):
        # Staged after partition these used to fail every window silently.
        message = UNHONOURABLE_EXTRACT_PARAMS[param]
        with pytest.raises(PipelineError, match=re.escape(message)):
            Pipeline.from_script(template.format(param)).run_flow(small_adder)

    @pytest.mark.parametrize("param", SA_ONLY_EXTRACT_PARAMS)
    @pytest.mark.parametrize("method", ["greedy", "random"])
    @pytest.mark.parametrize(
        "template",
        ["dag2eg; extract({}, {})", "st; partition(k=30); extract({}, {}); stitch"],
        ids=["whole", "staged"],
    )
    def test_sa_only_extract_params_rejected(self, template, method, param, small_adder):
        # These used to run as plain greedy or random extraction.
        with pytest.raises(PipelineError, match=re.escape(f"extract({method}) runs no chains, so it takes no {param}")):
            Pipeline.from_script(template.format(method, param)).run_flow(small_adder)

    @pytest.mark.parametrize("param", list(UNHONOURABLE_SATURATE_PARAMS))
    @pytest.mark.parametrize(
        "template",
        ["dag2eg; saturate({})", "st; partition(k=30); saturate({}); stitch"],
        ids=["whole", "staged"],
    )
    def test_unhonourable_saturate_params_rejected(self, template, param, small_adder):
        # A negative iteration count used to run nothing and report
        # iteration_limit; negative node and time budgets ran silently as 0.
        message = UNHONOURABLE_SATURATE_PARAMS[param]
        with pytest.raises(PipelineError, match=re.escape(message)):
            Pipeline.from_script(template.format(param)).run_flow(small_adder)

    @pytest.mark.parametrize("param", list(STAGED_EXTRACT_PARAMS))
    def test_staged_extract_params_honoured(self, param):
        from repro.benchgen import epfl
        from repro.obs.trace import tracing

        pipeline = Pipeline.from_script(
            "st; partition(k=30); saturate(iters=2, max_nodes=4000); "
            f"extract(sa, threads=2, {param}); stitch"
        )
        aig = epfl.build("log2", preset="test")
        expected = STAGED_EXTRACT_PARAMS[param]
        with tracing() as tracer:
            result = pipeline.run_flow(aig)

        def rounds(node):
            own = node["record"].name == "portfolio round"
            return own + sum(rounds(child) for child in node["children"])

        windows = [node for node in _walk(tracer.tree()) if node["record"].name == "window"]
        assert len(windows) == result.partition_profile.num_windows > 1
        assert [rounds(window) for window in windows] == [expected] * len(windows)

    @pytest.mark.parametrize("statement", list(UNHONOURABLE_CUT_PARAMS))
    def test_unhonourable_cut_params_rejected(self, statement, small_adder):
        # Test-preset log2 used to stay at 208 ANDs and 43 levels under
        # sop_balance(k=1) or cut_limit=0, and a negative cut_limit acted as
        # a slice inside enumerate_cuts.
        message = UNHONOURABLE_CUT_PARAMS[statement]
        with pytest.raises(PipelineError, match=re.escape(message)):
            Pipeline.from_script(f"st; {statement}").run_flow(small_adder)

    @pytest.mark.parametrize("statement", list(UNHONOURABLE_CEC_PARAMS))
    def test_unhonourable_cec_params_rejected(self, statement, small_adder):
        # A negative conflict budget used to end every check `unknown` and a
        # negative sim_words silently skipped the simulation filter.
        message = UNHONOURABLE_CEC_PARAMS[statement]
        with pytest.raises(PipelineError, match=re.escape(message)):
            Pipeline.from_script(f"st; balance; {statement}").run_flow(small_adder)
        kwargs = parse_script(statement)[0][1]
        with pytest.raises(ValueError, match=re.escape(message)):
            check_equivalence(small_adder, small_adder.clone(), **kwargs)

    def test_enumerate_cuts_rejects_cut_limit_below_one(self, small_adder):
        from repro.opt.cuts import enumerate_cuts

        for cut_limit in (0, -1):
            with pytest.raises(ValueError, match="cut_limit"):
                enumerate_cuts(small_adder, cut_limit=cut_limit)


class TestPipelineJobs:
    def test_spec_participates_in_job_hash(self):
        job_a = make_pipeline_job("adder", FAST_EMORPHIC_SCRIPT, preset="test")
        job_b = make_pipeline_job(
            "adder",
            "st ; sopb() ;dag2eg; saturate( iters = 2, max_nodes=4000 ); "
            "extract(method=sa, threads=1, iters=1, moves=1, seed=7); map",
            preset="test",
        )
        assert job_a.job_hash() == job_b.job_hash()
        different = make_pipeline_job("adder", "st; b; dag2eg; saturate(iters=2); map", preset="test")
        assert job_a.job_hash() != different.job_hash()

    @pytest.mark.parametrize("config", list(RECIPE_CONFIGS), ids=list(RECIPE_CONFIGS))
    def test_recipe_jobs_hash_as_their_scripts(self, config):
        config = RECIPE_CONFIGS[config]()
        for recipe, recipe_config, pipeline in (
            ("emorphic", config, emorphic_pipeline(config)),
            ("baseline", config.baseline, baseline_pipeline(config.baseline)),
        ):
            job = make_job("adder", recipe, recipe_config, preset="test")
            assert job.pipeline == {"script": pipeline.to_script()}
            scripted = make_pipeline_job("adder", pipeline.to_script(), preset="test")
            assert job.job_hash() == scripted.job_hash()

    def test_fields_the_recipe_does_not_read_leave_the_hash(self):
        base = make_job("adder", "emorphic", EmorphicConfig.fast(), preset="test")
        unread = EmorphicConfig.fast()
        unread.baseline.map_rounds = 5  # only the baseline recipe maps in rounds
        unread.verify_conflict_budget = None  # fast() runs no CEC
        assert make_job("adder", "emorphic", unread, preset="test").job_hash() == base.job_hash()
        read = EmorphicConfig.fast()
        read.baseline.k = 4
        assert make_job("adder", "emorphic", read, preset="test").job_hash() != base.job_hash()

    def test_fig9_summary_is_the_phase_tag_split(self, tmp_path):
        from repro.orchestrate.report import fig9_summary

        config = EmorphicConfig.fast()
        config.rewrite_iterations = 2
        jobs = [
            make_job("mem_ctrl", "emorphic", config, preset="test"),
            make_job("mem_ctrl", "baseline", config.baseline, preset="test"),
        ]
        report = run_campaign(jobs, store=tmp_path / "store", max_workers=1)
        assert report.counts["completed"] == 2
        split = phase_tag_split("emorphic", report.outcomes[0].record["result"]["pass_runtimes"])
        total = sum(split.values())
        # The baseline builds no e-graph, so Fig. 9 leaves it out.
        assert fig9_summary(report)["rows"] == {
            "mem_ctrl": {"emorphic": {name: 100.0 * seconds / total for name, seconds in split.items()}}
        }

    def test_job_round_trips_and_runs(self):
        job = make_pipeline_job("adder", "st; sopb; premap", preset="test")
        from repro.orchestrate import JobSpec

        clone = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.job_hash() == job.job_hash()
        record = run_job(job)
        assert record["result"]["flow"] == "pipeline"
        assert record["result"]["levels"] > 0

    def test_campaign_cache_hit_on_second_submission(self, tmp_path):
        jobs = [make_pipeline_job("adder", FAST_EMORPHIC_SCRIPT, preset="test")]
        first = run_campaign(jobs, store=tmp_path / "store", max_workers=1)
        assert first.counts["completed"] == 1
        second = run_campaign(jobs, store=tmp_path / "store", max_workers=1)
        assert second.counts["cached"] == 1

    def test_pipeline_shape_sweep_frontier(self, tmp_path):
        report = run_pipeline_sweep(
            ["adder"],
            ["st; sopb; dag2eg; saturate(iters=1, max_nodes=2000); extract(greedy); map",
             "st; resyn2; premap"],
            preset="test",
            store=tmp_path / "store",
            max_workers=1,
        )
        assert report.campaign.counts["completed"] == 2
        frontier = report.frontier()
        assert "adder" in frontier
        assert "script" in frontier["adder"]["point"]


class TestPipelineCli:
    def test_pipeline_command_end_to_end(self, capsys):
        code = main(
            ["pipeline", "adder", "--preset", "test", "--script",
             "st; sopb; dag2eg; saturate(iters=2); extract(sa, threads=1, iters=1, moves=1); map; cec"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "area=" in out and "per-pass runtime:" in out
        assert "equivalence check: equivalent" in out

    def test_pipeline_command_random_extraction_end_to_end(self, capsys):
        code = main(
            ["pipeline", "adder", "--preset", "test", "--script",
             "st; dag2eg; saturate(iters=2); extract(random, seed=3); map; cec"]
        )
        assert code == 0
        assert "equivalence check: equivalent" in capsys.readouterr().out

    def test_pipeline_command_writes_every_observer_output(self, tmp_path):
        trace, derivation, report = (tmp_path / n for n in ("t.json", "p.json", "r.json"))
        code = main(
            ["pipeline", "adder", "--preset", "test", "--script",
             "st; dag2eg; saturate(iters=2, max_nodes=3000); extract(greedy); map",
             "--trace", str(trace), "--provenance", str(derivation), "--sample-resources",
             "--json", str(report), "--no-ledger"]
        )
        assert code == 0
        names = {event["name"] for event in json.loads(trace.read_text())["traceEvents"]}
        assert {"pipeline", "saturate"} <= names
        assert json.loads(derivation.read_text())["nodes"]
        payload = json.loads(report.read_text())
        assert payload["attribution"] is not None and payload["resource"] is not None

    def test_pipeline_command_rejects_bad_script(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "adder", "--preset", "test", "--script", "st; frobnicate"])
        assert "unknown pass" in str(excinfo.value)

    @pytest.mark.parametrize("command", ["pipeline", "trace", "explain"])
    @pytest.mark.parametrize(
        "script,message",
        [
            ("st; dag2eg; extract(sa, threads=0)", "pipeline error: extract needs threads >= 1"),
            ("st; dag2eg; extract(greedy, threads=9)", "pipeline error: extract(greedy) runs no chains"),
        ],
    )
    def test_run_time_pass_error_is_a_clean_cli_error(self, command, script, message):
        # The parameter check runs when the pass runs, not when the script
        # parses; it must still end in the parse errors' clean exit.
        if command == "pipeline":
            argv = [command, "adder", "--preset", "test", "--script", script, "--no-ledger"]
        else:
            argv = [command, script, "-c", "adder", "--preset", "test"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value).startswith(message)

    def test_batch_rejects_flows_combined_with_script(self):
        with pytest.raises(SystemExit, match="drop --flows"):
            main(["batch", "--preset", "test", "--circuits", "adder",
                  "--flows", "baseline", "--script", "st; premap"])

    def test_scripts_command_lists_the_pass_registry(self, capsys):
        assert main(["scripts"]) == 0
        out = capsys.readouterr().out
        assert "saturate" in out and "extract" in out
        assert "resyn2" in out and "delay_opt" in out
        assert "named optimization scripts" not in out

    def test_run_command_exposes_remaining_config_knobs(self, capsys):
        code = main(
            ["run", "adder", "--preset", "test", "--rewrite-iterations", "1",
             "--max-egraph-nodes", "2000", "--sa-iterations", "1", "--threads", "1",
             "--no-verify", "--no-choices"]
        )
        assert code == 0
        assert "area=" in capsys.readouterr().out
