import pytest

from marginnet.config import RECIPE, SCHEMA, parse_config_text
from marginnet.recipes import DESK, FULL, MNIST_FILES, find_mnist, mnist_data


@pytest.mark.parametrize("recipe", [DESK, FULL], ids=["DESK", "FULL"])
def test_recipe_defaults_restate_the_paper_recipes(recipe):
    # runmeta.json tags these defaults "recipe", which holds only while
    # the recipes set them to the schema default
    cfg = parse_config_text(recipe)
    pinned = {key for key, row in SCHEMA.items()
              if row.origin == RECIPE and cfg.sources[key] == "config"}
    assert {"weight_decay", "batch_size", "lr_start", "lr_end"} <= pinned
    for key in pinned:
        assert cfg.values[key] == SCHEMA[key][1], key


def test_full_is_desk_plus_the_four_full_scale_keys():
    names = {key: key + ".bin" for key in MNIST_FILES}
    desk = parse_config_text(mnist_data("/m", names) + DESK)
    full = parse_config_text(mnist_data("/m", names) + FULL)
    assert (desk.dataset, desk.data_dir, desk.test_labels) == (
        "idx", "/m", "test_labels.bin")
    changed = {k: full.values[k] for k in SCHEMA
               if full.values[k] != desk.values[k]}
    assert changed == {"train_subset": 0, "hidden_dims": [512, 512],
                       "epochs": 400, "noise_start": 1.0}


def test_find_mnist_searches_mnist_dir_first_and_needs_all_four(
    tmp_path, monkeypatch
):
    env, default = tmp_path / "env", tmp_path / "default"
    gz, plain = zip(*MNIST_FILES.values())
    for root, names in ((env, gz[:3]), (default, gz[:2] + plain[2:])):
        root.mkdir()
        for name in names:
            (root / name).touch()
    monkeypatch.setenv("MNIST_DIR", str(env))
    # $MNIST_DIR lacks one file, so the default root, whose names mix
    # gzipped and plain files, is the one found
    assert find_mnist(str(default)) == (
        str(default), dict(zip(MNIST_FILES, gz[:2] + plain[2:])))
    (env / plain[3]).touch()
    assert find_mnist(str(default))[0] == str(env)
    monkeypatch.delenv("MNIST_DIR")
    assert find_mnist(str(tmp_path)) is None
