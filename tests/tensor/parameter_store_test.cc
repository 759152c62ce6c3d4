#include "tensor/parameter_store.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fedda::tensor {
namespace {

ParameterStore MakeStore() {
  ParameterStore store;
  store.Register("enc/W", Tensor::Full(2, 3, 1.0f));
  store.Register("enc/edge_emb", Tensor::Full(4, 2, 2.0f),
                 /*disentangled=*/true);
  store.Register("dec/rel/co-view", Tensor::Full(1, 3, 3.0f),
                 /*disentangled=*/true, /*edge_type=*/0);
  return store;
}

TEST(ParameterStoreTest, RegistrationAndCounts) {
  ParameterStore store = MakeStore();
  EXPECT_EQ(store.num_groups(), 3);
  EXPECT_EQ(store.num_scalars(), 6 + 8 + 3);
  EXPECT_EQ(store.num_disentangled_scalars(), 8 + 3);
}

TEST(ParameterStoreTest, InfoAndLookup) {
  ParameterStore store = MakeStore();
  EXPECT_EQ(store.FindByName("enc/edge_emb"), 1);
  EXPECT_EQ(store.FindByName("missing"), -1);
  EXPECT_FALSE(store.info(0).disentangled);
  EXPECT_TRUE(store.info(1).disentangled);
  EXPECT_EQ(store.info(2).edge_type, 0);
  EXPECT_EQ(store.info(2).name, "dec/rel/co-view");
}

TEST(ParameterStoreTest, GroupOffsets) {
  ParameterStore store = MakeStore();
  EXPECT_EQ(store.group_offset(0), 0);
  EXPECT_EQ(store.group_offset(1), 6);
  EXPECT_EQ(store.group_offset(2), 14);
}

TEST(ParameterStoreTest, DisentangledGroups) {
  ParameterStore store = MakeStore();
  EXPECT_EQ(store.DisentangledGroups(), (std::vector<int>{1, 2}));
}

TEST(ParameterStoreTest, GradsStartZeroAndZeroGradsResets) {
  ParameterStore store = MakeStore();
  EXPECT_EQ(store.grad(0).Sum(), 0.0);
  store.grad(0).Fill(5.0f);
  store.ZeroGrads();
  EXPECT_EQ(store.grad(0).Sum(), 0.0);
}

TEST(ParameterStoreTest, SameStructureAndCopyValues) {
  ParameterStore a = MakeStore();
  ParameterStore b = MakeStore();
  EXPECT_TRUE(a.SameStructure(b));
  b.value(0).Fill(9.0f);
  a.CopyValuesFrom(b);
  EXPECT_EQ(a.value(0).at(0, 0), 9.0f);

  ParameterStore c;
  c.Register("other", Tensor::Zeros(1, 1));
  EXPECT_FALSE(a.SameStructure(c));
}

TEST(ParameterStoreTest, FlattenRoundTrip) {
  ParameterStore a = MakeStore();
  const std::vector<float> flat = a.FlattenValues();
  ASSERT_EQ(static_cast<int64_t>(flat.size()), a.num_scalars());
  EXPECT_EQ(flat[0], 1.0f);
  EXPECT_EQ(flat[6], 2.0f);
  EXPECT_EQ(flat[14], 3.0f);

  ParameterStore b = MakeStore();
  std::vector<float> modified = flat;
  modified[7] = -1.0f;
  b.SetFromFlat(modified);
  EXPECT_EQ(b.value(1).at(0, 1), -1.0f);
  EXPECT_EQ(b.value(0).at(0, 0), 1.0f);
}

TEST(ParameterStoreTest, CopySemanticsAreDeep) {
  ParameterStore a = MakeStore();
  ParameterStore b = a;
  b.value(0).Fill(42.0f);
  EXPECT_EQ(a.value(0).at(0, 0), 1.0f);
}

// A copy carries values and layout but no gradient slots (the server
// copies whole models and never reads a gradient); ZeroGrads() creates them.
TEST(ParameterStoreTest, CopyCarriesValuesInfosAndOffsets) {
  ParameterStore a = MakeStore();
  a.value(1).Fill(-4.0f);
  const ParameterStore constructed = a;
  ParameterStore assigned;
  assigned = a;
  const ParameterStore* const copies[] = {&constructed, &assigned};
  for (const ParameterStore* copy : copies) {
    ASSERT_TRUE(copy->SameStructure(a));
    EXPECT_EQ(copy->num_scalars(), a.num_scalars());
    EXPECT_EQ(copy->num_disentangled_scalars(), a.num_disentangled_scalars());
    EXPECT_EQ(copy->FlattenValues(), a.FlattenValues());
    for (int id = 0; id < a.num_groups(); ++id) {
      EXPECT_EQ(copy->info(id).name, a.info(id).name);
      EXPECT_EQ(copy->info(id).disentangled, a.info(id).disentangled);
      EXPECT_EQ(copy->info(id).edge_type, a.info(id).edge_type);
      EXPECT_EQ(copy->group_offset(id), a.group_offset(id));
    }
  }
}

TEST(ParameterStoreTest, ZeroGradsCreatesSlotsShapedLikeValues) {
  const ParameterStore original = MakeStore();
  ParameterStore copy = original;
  copy.ZeroGrads();
  for (int id = 0; id < copy.num_groups(); ++id) {
    EXPECT_TRUE(copy.grad(id).SameShape(copy.value(id))) << id;
    EXPECT_EQ(copy.grad(id).Sum(), 0.0) << id;
  }
  copy.grad(2).Fill(1.0f);
  copy.ZeroGrads();
  EXPECT_EQ(copy.grad(2).Sum(), 0.0);
}

TEST(ParameterStoreTest, RegisterAndMovesKeepSlots) {
  ParameterStore store = MakeStore();
  store.grad(0).Fill(3.0f);
  const int id = store.Register("late", Tensor::Full(2, 2, 7.0f));
  EXPECT_TRUE(store.grad(id).SameShape(store.value(id)));
  EXPECT_EQ(store.grad(id).Sum(), 0.0);
  EXPECT_EQ(store.grad(0).Sum(), 18.0);

  ParameterStore moved = std::move(store);
  EXPECT_EQ(moved.grad(0).Sum(), 18.0);
  ParameterStore assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.grad(0).Sum(), 18.0);
  EXPECT_EQ(assigned.grad(id).Sum(), 0.0);

  // A copy that registers a group still has no slots until ZeroGrads().
  ParameterStore copy = assigned;
  copy.Register("later", Tensor::Zeros(1, 2));
  copy.ZeroGrads();
  EXPECT_TRUE(copy.grad(copy.num_groups() - 1).SameShape(
      copy.value(copy.num_groups() - 1)));
}

TEST(ParameterStoreDeathTest, GradOnCopyNamesZeroGrads) {
  const ParameterStore original = MakeStore();
  ParameterStore copy = original;
  EXPECT_DEATH(copy.grad(0), "ZeroGrads");
  const ParameterStore& const_copy = copy;
  EXPECT_DEATH(const_copy.grad(0), "ZeroGrads");
  // Copy assignment drops the target's own slots too.
  ParameterStore target = MakeStore();
  target = original;
  EXPECT_DEATH(target.grad(0), "ZeroGrads");
}

TEST(ParameterStoreDeathTest, DuplicateNameAborts) {
  ParameterStore store = MakeStore();
  EXPECT_DEATH(store.Register("enc/W", Tensor::Zeros(1, 1)), "duplicate");
}

TEST(ParameterStoreDeathTest, StructureMismatchCopyAborts) {
  ParameterStore a = MakeStore();
  ParameterStore b;
  b.Register("x", Tensor::Zeros(1, 1));
  EXPECT_DEATH(a.CopyValuesFrom(b), "mismatch");
}

TEST(ParameterStoreDeathTest, BadIdAborts) {
  ParameterStore store = MakeStore();
  EXPECT_DEATH(store.value(3), "");
  EXPECT_DEATH(store.value(-1), "");
}

}  // namespace
}  // namespace fedda::tensor
