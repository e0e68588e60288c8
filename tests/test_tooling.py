"""Guards on names: the benchmark harness and the README reach into the package
by name, one module names the head layers, one reads report.json's metric
sections, cli reads them through the eval stamp only, the run orchestration
reads no model stage, the package holds no code that only tests call, a
process that only generates data imports no training code, a config cannot
change once built, one function writes every file, one module frames and
decodes binary files, no module reads manifest.json, every record field is
read outside its class, and tests/mutate.py enumerates the mutants it should."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_run_module():
    """perfbench/run.py imported from its path, as the harness file stands."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_package_function():
    targets = load_run_module().trace_targets()
    assert targets
    for module, fname, span, _ in targets:
        assert module.__name__.startswith("retentive."), module.__name__
        fn = getattr(module, fname, None)
        assert inspect.isfunction(fn), f"{module.__name__}.{fname} is not a function"
        assert fn.__module__ == module.__name__, f"{module.__name__}.{fname} is re-exported"
        assert span == f"{module.__name__.rsplit('.', 1)[1]}.{fname}"


def test_trace_counters_read_arguments_the_package_still_takes():
    """A counter reads its argument by position and by name (``_arg``); a
    signature change that moved or renamed it would break ``--trace 1``."""
    reads = {}
    for module, fname, _, counter in load_run_module().trace_targets():
        if counter is None:
            continue
        params = list(inspect.signature(getattr(module, fname)).parameters)
        for node in ast.walk(ast.parse(inspect.getsource(counter))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
                pos, name = (a.value for a in node.args[2:4])
                assert params[pos] == name, f"{fname}: argument {pos} is {params[pos]!r}, not {name!r}"
                reads[fname] = (pos, name)
    assert reads == {"nms": (0, "boxes"), "assign_targets": (3, "mode"),
                     "save_dataset": (1, "dirpath"), "save_checkpoint": (1, "path")}


def test_harness_imports_from_the_package_resolve():
    checked = 0
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("retentive"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{script.name}: {node.module}.{alias.name}"
                    checked += 1
    assert checked > 0


def test_readme_library_block_uses_the_package_surface():
    import retentive

    for name in retentive.__all__:
        assert hasattr(retentive, name), name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    top_level = []
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("retentive"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                if node.module == "retentive":
                    top_level.append(alias.name)
    assert top_level
    assert set(top_level) <= set(retentive.__all__)


GEN_ONLY_PROBE = textwrap.dedent("""\
    import json, sys
    import retentive
    after_import = sorted(m for m in sys.modules if m.split(".")[0] == "retentive")
    from retentive.cli import run_experiment
    from retentive.config import load_config
    run_experiment(load_config(sys.argv[1]), 0, sys.argv[2], stages=("gen",))
    print(json.dumps([after_import, sorted(sys.modules)]))
""")


def test_gen_only_process_imports_no_training_code(tmp_path):
    """A fresh interpreter that imports the package and runs gen loads
    neither the training and evaluation modules nor the process pool."""
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text("dataset:\n  image_side: 48\n  num_classes: 6\n  num_novel: 2\n"
                   "  base_train_images: 2\n  test_images: 2\n  uar_eval_images: 2\n"
                   "  shots: 1\n  min_glyph: 12\n  max_glyph: 20\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", GEN_ONLY_PROBE, str(cfg), str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    after_import, after_gen = json.loads(done.stdout)
    assert after_import == ["retentive", "retentive.config", "retentive.errors",
                            "retentive.tensorops"]
    assert (tmp_path / "run" / "seed-0" / "gen.stamp.json").exists()
    training = {"retentive.detector", "retentive.losses", "retentive.trainer",
                "retentive.evaluation", "concurrent.futures.process"}
    assert training.isdisjoint(after_gen), sorted(training & set(after_gen))


def _file_writes(tree: ast.AST) -> list[int]:
    """Lines of calls that write or move a file, or make a directory:
    ``.write_text``, ``.write_bytes``, ``.mkdir``, ``os.replace``, and an
    ``open`` whose mode is not a constant free of w, a and x."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":  # open(file, mode) or path.open(mode)
            at = 0 if isinstance(func, ast.Attribute) else 1
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                          and not set(mode.value) & set("wax"))
        else:
            writes = name in ("write_text", "write_bytes", "mkdir") or name == "replace" \
                and getattr(getattr(func, "value", None), "id", None) == "os"
        if writes:
            lines.append(node.lineno)
    return lines


def test_files_are_written_by_write_artifact_only():
    """Every file of a run is written whole through config.write_artifact, which
    makes its directory and replaces the file in one step; reading stays open."""
    writes = [ast.parse(line) for line in (
        'p.write_text("x")', "p.write_bytes(b)", "p.mkdir(parents=True)", "os.replace(a, b)",
        'open(p, "wb")', 'open(p, mode="a")', 'p.open("x")', "open(p, mode)")]
    reads = [ast.parse(line) for line in (
        'open("/proc/self/maps", encoding="utf-8")', 'open(p, "rb")', "p.open()",
        "p.read_text()", "s.replace(a, b)")]
    got = [bool(_file_writes(t)) for t in writes + reads]
    assert got == [True] * len(writes) + [False] * len(reads)  # the scan sees what it must
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "config.py":
            writer = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "write_artifact")
            tree.body.remove(writer)
            assert _file_writes(writer)
        found += [f"{path.name}:{line}" for line in _file_writes(tree)]
    assert not found, found


def test_binary_framing_lives_in_config_only():
    """Checkpoints and images.bin are framed and hashed by config.write_framed
    and read, payload arrays too, by config.read_framed; a module packing its
    own binary fields or decoding its own payload would be a second frame
    format beside them."""
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "struct"]
            if isinstance(node, ast.Attribute) and node.attr == "frombuffer":
                found.append(f"{path.name}:{node.lineno}: frombuffer")
    assert not found, found


def test_manifest_json_is_written_never_read():
    """A dataset is its images.bin, whose frame header is the manifest;
    manifest.json is an export of that header written by save_dataset, and a
    module that opened it would trust a second, unverified copy."""
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        allowed = set()
        for node in ast.walk(ast.parse(text)):
            if path.name == "synthgen.py" and isinstance(node, ast.FunctionDef) \
                    and node.name == "save_dataset":
                allowed = set(range(node.lineno, node.end_lineno + 1))
        found += [f"{path.name}:{i}" for i, line in enumerate(text.splitlines(), 1)
                  if "manifest.json" in line and i not in allowed]
    assert not found, found


def test_head_layer_names_live_in_detector_only():
    """Training and inference read the same heads only if one module names their layers."""
    layer = re.compile(r"\b(rpn_obj|cls|reg)_[bn]\b")
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        if path.name == "detector.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and layer.search(node.value):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found


def test_model_stage_rules_live_in_the_library():
    """What a model's stage allows is checked where the model is used, so the
    run orchestration names no STAGE_* constant and reads no .stage attribute."""
    tree = ast.parse((ROOT / "src" / "retentive" / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.alias) and node.name.startswith("STAGE_")
             or isinstance(node, ast.Name) and node.id.startswith("STAGE_")
             or isinstance(node, ast.Attribute)
             and (node.attr == "stage" or node.attr.startswith("STAGE_"))]
    assert not found, found


def test_report_sections_are_named_in_evaluation_only():
    """Every printer and table reads a run's metrics under the same names only
    if one module reads them out of report.json."""
    sections = {"summary", "baseline_summary", "recall"}
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        if path.name == "evaluation.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and (node.value in sections or node.value.startswith("baseline_")):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found


def test_cli_reads_metrics_only_through_the_eval_stamp():
    """Every metric cli prints or tabulates is read by _finished_run, which
    checks report.json against its eval stamp; a second reader of
    report_metrics would print numbers no stamp vouches for."""
    tree = ast.parse((ROOT / "src" / "retentive" / "cli.py").read_text(encoding="utf-8"))
    readers = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                      for n in ast.walk(fn) if isinstance(n, ast.Call)}
            if "report_metrics" in called:
                readers[fn.name] = called
    assert list(readers) == ["_finished_run"], sorted(readers)
    assert "_read_stamp" in readers["_finished_run"]


def test_no_function_restates_a_config_choice_default():
    """A choice a config holds reaches the code through that config; a parameter
    defaulting to one of its values is a second, silently diverging default."""
    from retentive.config import ExperimentConfig

    cfg = ExperimentConfig()
    choices = {c for section in dataclasses.fields(cfg)
               for f in dataclasses.fields(getattr(cfg, section.name))
               for c in f.metadata["rule"].choices or ()}
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in node.args.defaults + node.args.kw_defaults:
                    if isinstance(default, ast.Constant) and default.value in choices:
                        found.append(f"{path.name}:{default.lineno}: {default.value!r}")
    assert not found, found


def _literal(node: ast.AST | None):
    """The value of a literal expression; any other node comes back as itself."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return node


def test_no_literal_restates_a_config_number_default():
    """A size, threshold or choice a config holds reaches the code through that
    config: no parameter defaults to a numeric literal, and no dataclass
    outside config.py gives a literal default to a field named after a field
    of any config section, nor a config choice as a literal default to any
    field (detector.Model takes its classifier, head domain and RPN strategy
    from its caller)."""
    from retentive.config import ExperimentConfig

    cfg = ExperimentConfig()
    config_fields = {f.name for section in dataclasses.fields(cfg)
                     for f in dataclasses.fields(getattr(cfg, section.name))}
    choices = {c for section in dataclasses.fields(cfg)
               for f in dataclasses.fields(getattr(cfg, section.name))
               for c in f.metadata["rule"].choices or ()}
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in node.args.defaults + node.args.kw_defaults:
                    value = _literal(default)
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        found.append(f"{path.name}:{default.lineno}: {value!r}")
            if path.name != "config.py" and isinstance(node, ast.ClassDef) \
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                for stmt in node.body:
                    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                        continue
                    value, name = _literal(stmt.value), getattr(stmt.target, "id", None)
                    if value is not stmt.value and (name in config_fields
                                                    or isinstance(value, str) and value in choices):
                        found.append(f"{path.name}:{stmt.lineno}: {node.name}.{name}")
    assert not found, found


def test_every_package_definition_is_read_outside_tests():
    """Every module-level function and class of the package is named in src/
    or perfbench/ beyond its own definition, and every public method is read
    as an attribute there; code that only tests call belongs in tests/
    (tests/oracles.py for oracles)."""
    package = sorted((ROOT / "src" / "retentive").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in package + sorted(PERFBENCH.glob("*.py")))
    words = Counter(re.findall(r"\w+", text))
    attributes = Counter(re.findall(r"\.(\w+)", text))
    unread = []
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and words[node.name] < 2:
                unread.append(node.name)
            if isinstance(node, ast.ClassDef):
                unread += [f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                           and not attributes[m.name]]
    assert not unread, f"nothing outside tests reads {unread}"


# Dataclass fields that nothing outside their own class reads, with the reason each stays.
UNREAD_FIELDS = {
    # Dataset.manifest_dict writes both into the manifest the dataset digest covers
    "Dataset.mode", "Dataset.k",
    # Rule's own admits and __str__ read it; config fields carry Rules built by rule()
    "Rule.bounds",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def test_every_record_field_is_read_outside_its_class():
    """Every annotated field of a package dataclass is read as an attribute in
    src/ or perfbench/ outside its own class body: a field only its class
    reads restates a value the class could compute or a caller already holds."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src").rglob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    reads = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "retentive":
            continue
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            inside = {id(n) for n in ast.walk(cls)}
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    if not any(n.attr == name and id(n) not in inside for n in reads):
                        unread.append(f"{cls.name}.{name}")
    assert sorted(set(unread) - UNREAD_FIELDS) == [], "fields only their class reads"
    assert sorted(UNREAD_FIELDS - set(unread)) == [], "exceptions for fields now read"


def test_config_sections_are_frozen():
    """A config is checked once, when it is built, and never changes after:
    every dataclass in config.py is frozen, and no module re-checks a config
    by calling a .validate method."""
    from retentive import config

    classes = [c for c in vars(config).values()
               if dataclasses.is_dataclass(c) and c.__module__ == config.__name__]
    assert {c.__name__ for c in classes} >= {"ExperimentConfig", "DatasetConfig", "TrainConfig"}
    assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []
    found = []
    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "validate":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# Every defaulted parameter of the package, keyed module.function.parameter,
# with the package code that calls the function; the comment above an entry
# says which value each caller passes. A new default needs an entry, and an
# entry's callers must exist and call the function. A caller is module.name
# of a top-level function or class, or the module itself for its own statements.
ALLOWED_DEFAULTS = {
    # _cmd_pipeline passes a command's stage prefix; _run_units runs every stage
    "cli.run_experiment.stages": ("cli._cmd_pipeline", "cli._run_units"),
    # multirun's parser passes seeds=True; every other command's leaves it out
    "cli._add_common.seeds": ("cli.build_parser",),
    # the module's __main__ block (and the retentive console script) leave it
    # out, so argparse reads sys.argv
    "cli.main.argv": ("cli",),
    # each config section passes some bounds and choices and leaves the rest
    "config.rule.lo": ("config.DatasetConfig", "config.ModelConfig"),
    "config.rule.hi": ("config.DatasetConfig", "config.EvalConfig"),
    "config.rule.above": ("config.ModelConfig", "config.TrainConfig"),
    "config.rule.below": ("config.TrainConfig",),
    "config.rule.choices": ("config.TrainConfig",),
    # build_minibatch pools a stack of maps; one image's pooling leaves it out
    "detector.pool_rois.batch_idx": ("trainer.build_minibatch", "detector.pool_proposals",
                                     "detector.roi_features"),
    # _run_gen passes uar_eval_images for uar-eval, base_train_images by default
    "synthgen.build_base_dataset.num_images": ("cli._run_gen",),
    # the merge passes class ids; proposal NMS leaves them out
    "tensorops.nms.groups": ("detector._merge_candidates", "detector.propose"),
    # the RPN draw passes the stage cache's labels; the ROI draw leaves them out
    "trainer.assign_targets.labelled": ("trainer.build_minibatch",),
}


def test_every_defaulted_parameter_names_the_package_callers_it_serves():
    """A default is a second way to call a function; it stays only where the
    package's own callers differ on it. Lists every defaulted parameter of
    the package by AST, and requires it in ALLOWED_DEFAULTS with callers that
    each name the function."""
    found, refs = set(), {}

    def collect(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.update(f"{prefix}{child.name}.{arg.arg}" for arg in defaulted)
                collect(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}{child.name}.")

    for path in sorted((ROOT / "src" / "retentive").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        collect(tree, f"{path.stem}.")
        for stmt in tree.body:
            owner = (f"{path.stem}.{stmt.name}" if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else path.stem)
            refs.setdefault(owner, set()).update(
                n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                if isinstance(n, (ast.Name, ast.Attribute)))
    assert sorted(found - set(ALLOWED_DEFAULTS)) == [], "defaults no entry allows"
    assert sorted(set(ALLOWED_DEFAULTS) - found) == [], "entries for defaults that are gone"
    for key, callers in ALLOWED_DEFAULTS.items():
        function = key.split(".")[-2]
        assert callers, key
        for caller in callers:
            assert function in refs.get(caller, ()), f"{caller} does not call {key}"


def test_mutate_enumerates_each_operator_of_the_touched_lines_only():
    """tests/mutate.py rewrites one span per mutant, in UTF-8 bytes, and
    leaves docstrings, comments and untouched lines alone; nothing runs."""
    import mutate  # tests/ is on the path, as for oracles

    snippet = textwrap.dedent('''\
        def f(a, b):
            """Doc with a < b and 1."""
            if a < b and a is not None:  # a < b or c in the comment stays
                a += 2 * b
            s = "é" + str(b)
            return a in b or a != 0
        ''').encode()
    got = [(m.line, m.label, m.apply(snippet).decode().splitlines()[m.line - 1].strip())
           for m in mutate.mutants(snippet, {2, 3, 4, 5})]
    assert got == [
        (3, "If -> pass", "pass"),
        (3, "< -> <=", "if a <= b and a is not None:  # a < b or c in the comment stays"),
        (3, "and -> or", "if a < b or a is not None:  # a < b or c in the comment stays"),
        (3, "is not -> is", "if a < b and a is None:  # a < b or c in the comment stays"),
        (4, "AugAssign -> pass", "pass"),
        (4, "+ -> -", "a -= 2 * b"),
        (4, "2 -> 1", "a += 1 * b"),
        (4, "2 -> 3", "a += 3 * b"),
        (4, "* -> /", "a += 2 / b"),
        (5, "Assign -> pass", "pass"),
        (5, "+ -> -", 's = "é" - str(b)'),
    ]
    last = [m.label for m in mutate.mutants(snippet, {6})]
    assert last == ["Return -> pass", "in -> not in", "or -> and", "!= -> ==",
                    "0 -> -1", "0 -> 1"]
