"""The rule contract: ``Rule.apply`` drives a rule's node-local
``rewrite`` over the plan bottom-up and reports a change exactly when
it returns a different root object. Checked for every default rule,
``NNTranslation`` (the last one) included."""
import pytest

from repro.analyzer import parse_inference_query
from repro.datasets import hospital
from repro.ir import Catalog, Col, Project, Scan
from repro.miniml import DecisionTree, Pipeline, TableFeaturizer
from repro.optimizer import default_rules
from repro.optimizer.nn_translate import NNTranslation
from repro.optimizer.pruning import PredicateBasedModelPruning
from repro.optimizer.projection import ModelProjectionPushdown
from repro.optimizer.relational import FilterPushdown, PruneColumns

RULES = [type(r) for r in default_rules()]

FIG1 = (
    "SELECT pid, age, PREDICT(MODEL los_model) AS predicted_los "
    "FROM patient_info "
    "JOIN blood_tests ON pid = pid "
    "JOIN prenatal_tests ON pid = pid "
    "WHERE pregnant = 1 AND predicted_los > 7"
)


@pytest.fixture(scope="module")
def catalog():
    return (
        Catalog()
        .add_table("patient_info", ["pid", "age", "gender", "pregnant", "smoker"], {"pid"})
        .add_table("blood_tests", ["pid", "bp", "hematocrit", "glucose"], {"pid"})
        .add_table("prenatal_tests", ["pid", "trimester", "fetal_hr"], {"pid"})
    )


@pytest.fixture(scope="module")
def fig1_plan(catalog):
    train = hospital.joined_frame(2000, seed=31)
    pipe = Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
        DecisionTree(task="regression", max_depth=6, min_samples_leaf=20),
    ).fit(train[hospital.FEATURES], train["los"].to_numpy())
    return parse_inference_query(FIG1, catalog, {"los_model": (pipe, "label")})


@pytest.mark.parametrize("rule_cls", RULES, ids=lambda c: c.name)
class TestRuleContract:
    def test_untouchable_plan_comes_back_as_is(self, rule_cls, catalog):
        cols = catalog.schemas["patient_info"]
        plan = Project(Scan("patient_info"), [(c, Col(c)) for c in cols])
        out, changed = rule_cls().apply(plan, catalog)
        assert out is plan
        assert not changed

    def test_own_output_on_fig1_reports_no_change(self, rule_cls, catalog, fig1_plan):
        rule = rule_cls()
        out, changed = rule.apply(fig1_plan, catalog)
        assert changed == (out is not fig1_plan)
        again, changed_again = rule.apply(out, catalog)
        assert again is out
        assert not changed_again


def test_default_rules_order():
    assert RULES == [FilterPushdown, PredicateBasedModelPruning, ModelProjectionPushdown,
                     PruneColumns, NNTranslation]
