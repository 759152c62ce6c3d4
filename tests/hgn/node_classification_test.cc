#include "hgn/node_classification.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/schema.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tests/tensor/grad_check.h"

namespace fedda::hgn {
namespace {

TEST(SoftmaxCrossEntropyTest, MatchesClosedFormForUniformLogits) {
  tensor::Graph g(false);
  tensor::Var logits = g.Constant(tensor::Tensor::Zeros(3, 4));
  auto labels = std::make_shared<std::vector<int32_t>>(
      std::vector<int32_t>{0, 1, 3});
  const float loss =
      g.value(tensor::SoftmaxCrossEntropy(&g, logits, labels)).at(0, 0);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5);
}

TEST(SoftmaxCrossEntropyTest, ConfidentCorrectPredictionHasLowLoss) {
  tensor::Graph g(false);
  tensor::Tensor z(1, 3);
  z.at(0, 1) = 20.0f;
  auto labels = std::make_shared<std::vector<int32_t>>(
      std::vector<int32_t>{1});
  const float loss =
      g.value(tensor::SoftmaxCrossEntropy(&g, g.Constant(z), labels))
          .at(0, 0);
  EXPECT_LT(loss, 1e-4);
}

TEST(SoftmaxCrossEntropyTest, StableForLargeLogits) {
  tensor::Graph g(false);
  tensor::Tensor z(1, 2);
  z.at(0, 0) = 1000.0f;
  z.at(0, 1) = 998.0f;
  auto labels = std::make_shared<std::vector<int32_t>>(
      std::vector<int32_t>{0});
  const float loss =
      g.value(tensor::SoftmaxCrossEntropy(&g, g.Constant(z), labels))
          .at(0, 0);
  EXPECT_FALSE(std::isnan(loss));
  EXPECT_NEAR(loss, std::log1p(std::exp(-2.0f)), 1e-4);
}

TEST(SoftmaxCrossEntropyTest, GradientMatchesFiniteDifference) {
  core::Rng rng(1);
  const tensor::Tensor z =
      tensor::Tensor::RandomUniform(4, 3, &rng, -1.5f, 1.5f);
  auto labels = std::make_shared<std::vector<int32_t>>(
      std::vector<int32_t>{2, 0, 1, 2});
  tensor::testing::CheckGradients(
      {z}, [labels](tensor::Graph* g, const std::vector<tensor::Var>& v) {
        return tensor::SoftmaxCrossEntropy(g, v[0], labels);
      });
}

TEST(SoftmaxCrossEntropyDeathTest, BadLabelAborts) {
  tensor::Graph g(false);
  tensor::Var logits = g.Constant(tensor::Tensor::Zeros(1, 2));
  auto labels = std::make_shared<std::vector<int32_t>>(
      std::vector<int32_t>{5});
  EXPECT_DEATH(tensor::SoftmaxCrossEntropy(&g, logits, labels),
               "label out of range");
}

class NodeClassificationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec = data::AmazonSpec(0.02);
    spec.num_communities = 4;
    core::Rng rng(17);
    std::vector<int> raw_labels;
    graph_ = data::GenerateGraphWithLabels(spec, &rng, &raw_labels);
    labels_.assign(raw_labels.begin(), raw_labels.end());
    split_ = SplitNodes(graph_.num_nodes(), 0.3, &rng);

    SimpleHgnConfig config;
    config.num_layers = 2;
    config.num_heads = 2;
    config.hidden_dim = 16;
    config.edge_emb_dim = 4;
    model_ = std::make_unique<SimpleHgn>(
        std::vector<int64_t>{graph_.node_type_info(0).feature_dim},
        std::vector<std::string>{"product"},
        std::vector<std::string>{"co-view", "co-purchase"}, config);
    core::Rng init(18);
    model_->InitParameters(&store_, &init);
  }

  graph::HeteroGraph graph_;
  std::vector<int32_t> labels_;
  NodeSplit split_;
  std::unique_ptr<SimpleHgn> model_;
  tensor::ParameterStore store_;
};

TEST_F(NodeClassificationFixture, LabelsComeFromGenerator) {
  EXPECT_EQ(static_cast<int64_t>(labels_.size()), graph_.num_nodes());
  for (int32_t label : labels_) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST_F(NodeClassificationFixture, HeadRegistrationAndReuse) {
  NodeClassificationTask task(model_.get(), &graph_, labels_, split_.train,
                              4);
  core::Rng rng(19);
  const int groups_before = store_.num_groups();
  task.InitHeadParameters(&store_, &rng);
  EXPECT_EQ(store_.num_groups(), groups_before + 2);
  EXPECT_NE(store_.FindByName("head/W"), -1);
  // Second task against an already-headed store records ids, no re-register.
  NodeClassificationTask task2(model_.get(), &graph_, labels_, split_.train,
                               4);
  task2.InitHeadParameters(&store_, &rng);
  EXPECT_EQ(store_.num_groups(), groups_before + 2);
}

TEST_F(NodeClassificationFixture, TrainingBeatsChanceAccuracy) {
  NodeClassificationTask task(model_.get(), &graph_, labels_, split_.train,
                              4);
  core::Rng rng(20);
  task.InitHeadParameters(&store_, &rng);

  const auto before = task.Evaluate(&store_, split_.eval);
  TrainOptions options;
  options.local_epochs = 1;
  options.learning_rate = 5e-3f;
  core::Rng train_rng(21);
  double loss_first = 0.0, loss_last = 0.0;
  for (int round = 0; round < 15; ++round) {
    const double loss = task.TrainRound(&store_, options, &train_rng);
    if (round == 0) loss_first = loss;
    loss_last = loss;
  }
  const auto after = task.Evaluate(&store_, split_.eval);

  EXPECT_LT(loss_last, loss_first);
  EXPECT_GT(after.accuracy, 0.5);  // 4 classes -> chance 0.25
  EXPECT_GT(after.accuracy, before.accuracy);
  EXPECT_GT(after.macro_f1, 0.4);
}

TEST_F(NodeClassificationFixture, TracedTrainRoundRecordsEncodeAndBackward) {
  NodeClassificationTask task(model_.get(), &graph_, labels_, split_.train,
                              4);
  core::Rng rng(25);
  task.InitHeadParameters(&store_, &rng);
  obs::Tracer tracer;
  TrainOptions options;
  options.tracer = &tracer;
  task.TrainRound(&store_, options, &rng);
  std::map<std::string, int> counts;
  for (const obs::Span& span : tracer.Collect()) ++counts[span.name];
  EXPECT_GT(counts["hgn-encode"], 0);
  EXPECT_GT(counts["backward"], 0);
}

TEST_F(NodeClassificationFixture, EmptyTrainSetIsNoOp) {
  NodeClassificationTask task(model_.get(), &graph_, labels_, {}, 4);
  core::Rng rng(22);
  task.InitHeadParameters(&store_, &rng);
  const std::vector<float> before = store_.FlattenValues();
  TrainOptions options;
  EXPECT_EQ(task.TrainRound(&store_, options, &rng), 0.0);
  EXPECT_EQ(before, store_.FlattenValues());
  EXPECT_EQ(task.num_examples(), 0);
}

TEST_F(NodeClassificationFixture, EvaluateEmptyNodesReturnsZeros) {
  NodeClassificationTask task(model_.get(), &graph_, labels_, split_.train,
                              4);
  core::Rng rng(23);
  task.InitHeadParameters(&store_, &rng);
  const auto result = task.Evaluate(&store_, {});
  EXPECT_EQ(result.accuracy, 0.0);
  EXPECT_EQ(result.macro_f1, 0.0);
}

TEST(SplitNodesTest, PartitionsAndSorts) {
  core::Rng rng(24);
  const NodeSplit split = SplitNodes(100, 0.3, &rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.eval.size(), 30u);
  EXPECT_TRUE(std::is_sorted(split.train.begin(), split.train.end()));
  std::set<graph::NodeId> all(split.train.begin(), split.train.end());
  all.insert(split.eval.begin(), split.eval.end());
  EXPECT_EQ(all.size(), 100u);
}

}  // namespace
}  // namespace fedda::hgn
