"""Good/bad fixture coverage for every lint rule (R001-R008) and noqa handling."""

import textwrap

import pytest

from repro.analysis import ERROR, WARNING, all_rules, get_rule, lint_file, lint_paths


def _write(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _rule_ids(findings):
    return [f.rule_id for f in findings]


class TestFramework:
    def test_all_rules_registered(self):
        # R003 is retired; ids are never renumbered or reused
        assert [r.rule_id for r in all_rules()] == ["R001", "R002", "R004", "R005",
                                                    "R006", "R007", "R008"]

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("R999")

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.description
            assert rule.severity in (ERROR, WARNING)

    def test_syntax_error_reports_r000(self, tmp_path):
        path = _write(tmp_path, "def broken(:\n")
        findings = lint_file(path)
        assert _rule_ids(findings) == ["R000"]
        assert findings[0].severity == ERROR

    def test_findings_sorted_and_formatted(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def late():
                return np.random.normal(0.0, 1.0)

            def early():
                return np.random.rand(3)
        """)
        findings = lint_file(path)
        assert _rule_ids(findings) == ["R001", "R001"]
        assert findings[0].line < findings[1].line
        formatted = findings[0].format()
        assert "R001" in formatted and str(path.as_posix()) in formatted


class TestR001RngDiscipline:
    def test_bare_default_rng_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            gen = np.random.default_rng()
        """)
        assert _rule_ids(lint_file(path)) == ["R001"]

    def test_legacy_sampler_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            x = np.random.randn(3)
        """)
        assert _rule_ids(lint_file(path)) == ["R001"]

    def test_seeded_default_rng_allowed(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            gen = np.random.default_rng(0)
            gen2 = np.random.default_rng(seed=42)
        """)
        assert lint_file(path) == []

    def test_generator_methods_allowed(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            gen = np.random.default_rng(7)
            x = gen.standard_normal(3)
        """)
        assert lint_file(path) == []

    def test_rng_module_exempt(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            _RNG = np.random.default_rng()
        """, name="rng.py")
        assert lint_file(path) == []

    def test_finding_is_autofixable(self, tmp_path):
        path = _write(tmp_path, "import numpy as np\ng = np.random.default_rng()\n")
        (finding,) = lint_file(path)
        assert finding.autofixable


class TestR002SampleSiteNames:
    def test_duplicate_literal_name_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl

            def model(d):
                ppl.sample("z", d)
                ppl.sample("z", d)
        """)
        findings = lint_file(path)
        assert _rule_ids(findings) == ["R002"]
        assert "'z'" in findings[0].message

    def test_first_use_precedes_duplicate(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl

            def model(d):
                ppl.sample("z", d)
                ppl.sample("z", d)
        """)
        (finding,) = lint_file(path)
        assert "first use at line 5" in finding.message
        assert finding.line == 6

    def test_fstring_name_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl

            def model(d, i):
                ppl.sample(f"z_{i}", d)
        """)
        assert _rule_ids(lint_file(path)) == ["R002"]

    def test_format_and_concat_names_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl

            def model(d, i):
                ppl.param("w_{}".format(i), d)
                ppl.sample("z_" + str(i), d)
        """)
        assert _rule_ids(lint_file(path)) == ["R002", "R002"]

    def test_variable_names_allowed(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl

            def model(dists):
                for name, d in dists.items():
                    ppl.sample(name, d)
        """)
        assert lint_file(path) == []

    def test_same_name_in_different_functions_allowed(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl

            def model(d):
                ppl.sample("z", d)

            def guide(d):
                ppl.sample("z", d)
        """)
        assert lint_file(path) == []

    def test_nested_function_scopes_are_separate(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl

            def outer(d):
                ppl.sample("z", d)

                def inner():
                    ppl.sample("z", d)
        """)
        assert lint_file(path) == []


class TestR004SeedBeforeSampling:
    def test_runner_without_seed_all_flagged(self, tmp_path):
        path = _write(tmp_path, """
            from repro.experiments.api import register

            @register("exp", config_cls=object, number="E9", artefact="X", title="t")
            def runner(config):
                return {}, None
        """)
        findings = lint_file(path)
        assert _rule_ids(findings) == ["R004"]
        assert "seed_all" in findings[0].message

    def test_direct_seed_all_allowed(self, tmp_path):
        path = _write(tmp_path, """
            from repro.experiments.api import register

            @register("exp", config_cls=object, number="E9", artefact="X", title="t")
            def runner(config):
                config.seed_all()
                return {}, None
        """)
        assert lint_file(path) == []

    def test_seed_all_via_helper_allowed(self, tmp_path):
        path = _write(tmp_path, """
            from repro.experiments.api import register

            def _impl(config):
                config.seed_all()
                return {}, None

            @register("exp", config_cls=object, number="E9", artefact="X", title="t")
            def runner(config):
                return _impl(config)
        """)
        assert lint_file(path) == []

    def test_seed_all_via_partial_dispatch_allowed(self, tmp_path):
        path = _write(tmp_path, """
            from functools import partial
            from repro.experiments.api import register

            def _impl(config, flag):
                config.seed_all()
                return {}, None

            @register("exp", config_cls=object, number="E9", artefact="X", title="t")
            def runner(config):
                runners = {"a": partial(_impl, flag=True)}
                return runners["a"](config)
        """)
        assert lint_file(path) == []

    def test_unregistered_function_not_flagged(self, tmp_path):
        path = _write(tmp_path, """
            def helper(config):
                return {}, None
        """)
        assert lint_file(path) == []


class TestR005SizedVectorizedContext:
    def test_sizeless_context_with_sample_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl
            from repro import nn

            def forward(d):
                with nn.vectorized_samples(1):
                    return ppl.sample("z", d)
        """)
        findings = lint_file(path)
        assert _rule_ids(findings) == ["R005"]
        assert "sizes" in findings[0].message

    def test_sized_context_allowed(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl
            from repro import nn

            def forward(d, k):
                with nn.vectorized_samples(1, sizes=(k,)):
                    return ppl.sample("z", d)
        """)
        assert lint_file(path) == []

    def test_sizeless_context_without_sampling_allowed(self, tmp_path):
        path = _write(tmp_path, """
            from repro import nn

            def forward(net, x):
                with nn.vectorized_samples(1):
                    return net(x)
        """)
        assert lint_file(path) == []

    def test_sample_in_nested_def_not_counted(self, tmp_path):
        path = _write(tmp_path, """
            import repro.ppl as ppl
            from repro import nn

            def forward(net, x, d):
                with nn.vectorized_samples(1):
                    def later():
                        return ppl.sample("z", d)
                    return net(x)
        """)
        assert lint_file(path) == []


class TestR006SilentExceptionSwallow:
    def test_bare_except_pass_flagged(self, tmp_path):
        path = _write(tmp_path, """
            def load(path):
                try:
                    return path.read_text()
                except:
                    pass
        """, name="repro/mod.py")
        findings = lint_file(path)
        assert _rule_ids(findings) == ["R006"]
        assert "bare except:" in findings[0].message

    def test_except_exception_pass_flagged(self, tmp_path):
        path = _write(tmp_path, """
            def load(path):
                try:
                    return path.read_text()
                except Exception:
                    pass
        """, name="repro/mod.py")
        assert _rule_ids(lint_file(path)) == ["R006"]

    def test_broad_name_in_tuple_flagged(self, tmp_path):
        path = _write(tmp_path, """
            def load(path):
                try:
                    return path.read_text()
                except (ValueError, BaseException):
                    pass
        """, name="repro/mod.py")
        assert _rule_ids(lint_file(path)) == ["R006"]

    def test_except_exception_continue_flagged(self, tmp_path):
        path = _write(tmp_path, """
            def load(paths):
                out = []
                for path in paths:
                    try:
                        out.append(path.read_text())
                    except Exception:
                        continue
                return out
        """, name="repro/mod.py")
        assert _rule_ids(lint_file(path)) == ["R006"]

    def test_narrow_except_pass_allowed(self, tmp_path):
        path = _write(tmp_path, """
            def unlink(path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
        """, name="repro/mod.py")
        assert lint_file(path) == []

    def test_handled_broad_except_allowed(self, tmp_path):
        path = _write(tmp_path, """
            def run(fn, log):
                try:
                    return fn()
                except Exception as exc:
                    log.append(str(exc))
                    raise
        """, name="repro/mod.py")
        assert lint_file(path) == []

    def test_noqa_suppresses(self, tmp_path):
        path = _write(tmp_path, """
            def cleanup(path):
                try:
                    path.unlink()
                except Exception:  # repro: noqa[R006]
                    pass
        """, name="repro/mod.py")
        assert lint_file(path) == []

    def test_files_outside_repro_exempt(self, tmp_path):
        path = _write(tmp_path, """
            def load(path):
                try:
                    return path.read_text()
                except Exception:
                    pass
        """, name="thirdparty/mod.py")
        assert lint_file(path) == []


class TestR007AsyncBlockingCall:
    def test_time_sleep_in_async_def_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import time

            async def handle(request):
                time.sleep(0.1)
                return request
        """, name="repro/serve/mod.py")
        assert _rule_ids(lint_file(path)) == ["R007"]

    def test_sync_open_and_read_text_flagged(self, tmp_path):
        path = _write(tmp_path, """
            async def load(path):
                with open(path) as fh:
                    data = fh.read()
                return data + path.read_text()
        """, name="repro/serve/mod.py")
        assert _rule_ids(lint_file(path)) == ["R007", "R007"]

    def test_numpy_realization_flagged(self, tmp_path):
        path = _write(tmp_path, """
            async def respond(tensor):
                return tensor.numpy()
        """, name="repro/serve/mod.py")
        assert _rule_ids(lint_file(path)) == ["R007"]

    def test_sync_def_and_nested_def_exempt(self, tmp_path):
        path = _write(tmp_path, """
            import time

            def warmup():
                time.sleep(0.1)

            async def handle(request):
                def realize(t):
                    return t.numpy()
                return realize(request)
        """, name="repro/serve/mod.py")
        assert lint_file(path) == []

    def test_async_sleep_and_executor_allowed(self, tmp_path):
        path = _write(tmp_path, """
            import asyncio

            async def handle(loop, engine, batch):
                await asyncio.sleep(0.01)
                return await loop.run_in_executor(None, engine.predict, batch)
        """, name="repro/serve/mod.py")
        assert lint_file(path) == []

    def test_noqa_suppresses(self, tmp_path):
        path = _write(tmp_path, """
            import time

            async def debug_handle(request):
                time.sleep(0.1)  # repro: noqa[R007]
                return request
        """, name="repro/serve/mod.py")
        assert lint_file(path) == []

    def test_files_outside_serve_exempt(self, tmp_path):
        path = _write(tmp_path, """
            import time

            async def handle(request):
                time.sleep(0.1)
        """, name="repro/exec/mod.py")
        assert lint_file(path) == []


class TestNoqa:
    def test_line_level_noqa_suppresses_named_rule(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            gen = np.random.default_rng()  # repro: noqa[R001]
        """)
        assert lint_file(path) == []

    def test_line_level_noqa_wrong_rule_keeps_finding(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            gen = np.random.default_rng()  # repro: noqa[R002]
        """)
        assert _rule_ids(lint_file(path)) == ["R001"]

    def test_bare_line_noqa_suppresses_everything_on_line(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np
            gen = np.random.default_rng()  # repro: noqa
        """)
        assert lint_file(path) == []

    def test_file_level_noqa_on_comment_line(self, tmp_path):
        path = _write(tmp_path, """
            # repro: noqa[R001]
            import numpy as np
            gen = np.random.default_rng()
            x = np.random.randn(3)
        """)
        assert lint_file(path) == []

    def test_file_level_noqa_only_covers_listed_rules(self, tmp_path):
        path = _write(tmp_path, """
            # repro: noqa[R001]
            import repro.ppl as ppl

            def model(d, i):
                ppl.sample(f"z_{i}", d)
        """)
        assert _rule_ids(lint_file(path)) == ["R002"]

    def test_multiple_rules_in_one_directive(self, tmp_path):
        path = _write(tmp_path, """
            # repro: noqa[R001, R002]
            import numpy as np
            import repro.ppl as ppl

            gen = np.random.default_rng()

            def model(d, i):
                ppl.sample(f"z_{i}", d)
        """)
        assert lint_file(path) == []


class TestR008BackendBypass:
    def test_np_kernel_call_in_nn_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def forward(x):
                return np.exp(np.matmul(x, x))
        """, name="repro/nn/fast.py")
        assert _rule_ids(lint_file(path)) == ["R008", "R008"]

    def test_stride_tricks_windowing_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def windows(x, k):
                return np.lib.stride_tricks.as_strided(x, (k, k), x.strides)
        """, name="repro/nn/functional.py")
        findings = lint_file(path)
        assert _rule_ids(findings) == ["R008"]
        assert "im2col" in findings[0].message

    def test_cumsum_and_reduction_flagged(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def scan(x):
                return np.cumsum(x, axis=0) + np.sum(x)
        """, name="repro/nn/tensor.py")
        assert _rule_ids(lint_file(path)) == ["R008", "R008"]

    def test_backends_package_exempt(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def kernel(srcs, params):
                return np.exp(srcs[0])
        """, name="repro/nn/backends/numpy_backend.py")
        assert lint_file(path) == []

    def test_outside_nn_exempt(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def summarize(x):
                return np.mean(np.exp(x))
        """, name="repro/ppl/infer.py")
        assert lint_file(path) == []

    def test_non_kernel_numpy_stays_legal(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def alloc(shape, idx, grad, updates):
                buf = np.empty(shape, dtype=np.float64)
                np.add.at(grad, idx, updates)
                return np.transpose(buf), np.unravel_index(idx, shape)
        """, name="repro/nn/functional.py")
        assert lint_file(path) == []

    def test_noqa_suppression(self, tmp_path):
        path = _write(tmp_path, """
            import numpy as np

            def forward(x):
                return np.exp(x)  # repro: noqa[R008]
        """, name="repro/nn/fast.py")
        assert lint_file(path) == []


class TestLintPaths:
    def test_directory_discovery_skips_pycache(self, tmp_path):
        _write(tmp_path, "import numpy as np\ng = np.random.default_rng()\n",
               name="pkg/mod.py")
        _write(tmp_path, "import numpy as np\ng = np.random.default_rng()\n",
               name="pkg/__pycache__/mod.py")
        findings = lint_paths([tmp_path])
        assert len(findings) == 1
        assert "__pycache__" not in findings[0].path

    def test_duplicate_paths_deduplicated(self, tmp_path):
        path = _write(tmp_path, "import numpy as np\ng = np.random.default_rng()\n")
        findings = lint_paths([path, path, tmp_path])
        assert len(findings) == 1
