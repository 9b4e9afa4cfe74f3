#pragma once
// The models the workloads serve and deploy. Weights are fixed synthetic
// weights (the library's default model seeds): they are part of the
// system under test, so they never vary with the workload seed; only the
// inputs, the arrivals and the per-request model choice do.

#include <functional>
#include <string>
#include <vector>

#include "compiler/graph.hpp"
#include "models/models.hpp"

namespace perfbench {

struct ModelSpec {
  std::string name;    // "<family>.<dense|mM>", as used in metric names
  std::string family;  // "resnet18", "vit" or "ffn"
  int m = 0;           // 1:M sparsity (0 = dense)
  std::function<decimate::Graph()> build;
};

/// Sparsity levels of the paper's deploy matrix.
inline const std::vector<int>& paper_sparsities() {
  static const std::vector<int> ms = {0, 4, 8, 16};
  return ms;
}

inline std::string sparsity_name(int m) {
  return m == 0 ? "dense" : "m" + std::to_string(m);
}

/// ResNet18 (CIFAR 32x32) at one sparsity.
inline ModelSpec resnet18_model(int m) {
  return {"resnet18." + sparsity_name(m), "resnet18", m, [m] {
            decimate::Resnet18Options o;
            o.sparsity_m = m;
            return decimate::build_resnet18(o);
          }};
}

/// ViT-S/16 @224 at one sparsity (FFN layers pruned).
inline ModelSpec vit_model(int m) {
  return {"vit." + sparsity_name(m), "vit", m, [m] {
            decimate::VitOptions o;
            o.sparsity_m = m;
            return decimate::build_vit(o);
          }};
}

/// The ViT FFN block: 196 tokens, 384 -> 1536 -> 384, 1:8.
inline ModelSpec ffn_model() {
  return {"ffn.m8", "ffn", 8,
          [] { return decimate::build_ffn_block(196, 384, 1536, 8, 7); }};
}

inline std::vector<ModelSpec> resnet18_models() {
  std::vector<ModelSpec> v;
  for (int m : paper_sparsities()) v.push_back(resnet18_model(m));
  return v;
}

/// ResNet18 and ViT-S/16 at every paper sparsity (x SW/xDecimate = the
/// 16-plan matrix).
inline std::vector<ModelSpec> paper_matrix_models() {
  std::vector<ModelSpec> v = resnet18_models();
  for (int m : paper_sparsities()) v.push_back(vit_model(m));
  return v;
}

}  // namespace perfbench
