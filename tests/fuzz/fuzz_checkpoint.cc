#include <cstdint>
#include <string>

#include "tensor/checkpoint.h"
#include "tensor/parameter_store.h"
#include "tests/fuzz/fuzz_harness.h"

/// Checkpoint files (read whole, then decoded by core::ByteReader):
/// LoadCheckpoint reconstructs a store from scratch,
/// RestoreCheckpointValues overwrites a fixed-layout store — both must
/// reject corrupt shapes, counts, repeated names and truncation before
/// allocating or registering.
FEDDA_FUZZ_TARGET(Checkpoint) {
  static const std::string path = fedda::fuzz::ScratchPath("checkpoint");
  fedda::fuzz::WriteScratch(path, data, size);
  fedda::tensor::ParameterStore fresh;
  (void)fedda::tensor::LoadCheckpoint(path, &fresh);
  fedda::tensor::ParameterStore fixed;
  fixed.Register("w0", fedda::tensor::Tensor::Zeros(2, 3));
  fixed.Register("w1", fedda::tensor::Tensor::Zeros(4, 1),
                 /*disentangled=*/true, /*edge_type=*/0);
  (void)fedda::tensor::RestoreCheckpointValues(path, &fixed);
}
