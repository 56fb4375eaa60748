#include "tpu/program.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace hdc::tpu {

const char* isa_op_name(IsaOp op) {
  switch (op) {
    case IsaOp::kDmaIn:
      return "DMA_IN";
    case IsaOp::kLoadTile:
      return "LOAD_TILE";
    case IsaOp::kMatmulTile:
      return "MATMUL_TILE";
    case IsaOp::kDrain:
      return "DRAIN";
    case IsaOp::kActivation:
      return "ACT";
    case IsaOp::kDmaOut:
      return "DMA_OUT";
  }
  return "?";
}

std::string Instruction::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%-12s %6u %6u  ; %llu cycles", isa_op_name(op), arg0,
                arg1, static_cast<unsigned long long>(cycles));
  return buf;
}

std::uint64_t TpuProgram::compute_cycles() const {
  std::uint64_t total = 0;
  for (const auto& inst : code) {
    total += inst.cycles;
  }
  return total;
}

std::uint64_t TpuProgram::dma_in_bytes() const {
  std::uint64_t total = 0;
  for (const auto& inst : code) {
    if (inst.op == IsaOp::kDmaIn) {
      total += inst.arg0;
    }
  }
  return total;
}

std::uint64_t TpuProgram::dma_out_bytes() const {
  std::uint64_t total = 0;
  for (const auto& inst : code) {
    if (inst.op == IsaOp::kDmaOut) {
      total += inst.arg0;
    }
  }
  return total;
}

std::size_t TpuProgram::count(IsaOp op) const {
  std::size_t n = 0;
  for (const auto& inst : code) {
    n += inst.op == op ? 1 : 0;
  }
  return n;
}

std::string TpuProgram::disassemble(std::size_t max_instructions) const {
  std::ostringstream os;
  os << "; program for " << model_id << " (" << code.size() << " instructions, "
     << compute_cycles() << " compute cycles)\n";
  for (std::size_t i = 0; i < code.size() && i < max_instructions; ++i) {
    os << code[i].to_string() << "\n";
  }
  if (code.size() > max_instructions) {
    os << "; ... " << (code.size() - max_instructions) << " more\n";
  }
  return os.str();
}

ProgramAssembler::ProgramAssembler(SystolicConfig config) : mxu_(config) {}

TpuProgram ProgramAssembler::assemble(const CompiledModel& model) const {
  TpuProgram program;
  program.model_id = model.id;
  if (!model.has_device_segment()) {
    return program;
  }

  const auto& cfg = mxu_.config();
  program.code.push_back(Instruction{
      IsaOp::kDmaIn, static_cast<std::uint32_t>(model.device_input_bytes), 0, 0});

  const lite::LiteModel& lite_model = model.model();
  for (std::size_t i = 0; i < lite_model.ops.size(); ++i) {
    if (model.plan[i].placement != Placement::kDevice) {
      continue;
    }
    const auto& op = lite_model.ops[i];
    if (op.code == lite::OpCode::kFullyConnected) {
      const auto& weights = lite_model.tensor(op.inputs[1]);
      const auto tiles_in = static_cast<std::uint32_t>(mxu_.tiles_along_rows(weights.shape[0]));
      const auto tiles_out =
          static_cast<std::uint32_t>(mxu_.tiles_along_cols(weights.shape[1]));
      // Weight-stationary schedule: per output tile, sweep the input tiles
      // (load + stream), then drain the accumulators once.
      for (std::uint32_t tj = 0; tj < tiles_out; ++tj) {
        for (std::uint32_t ti = 0; ti < tiles_in; ++ti) {
          program.code.push_back(Instruction{IsaOp::kLoadTile, ti, tj, cfg.fill_cycles});
          program.code.push_back(
              Instruction{IsaOp::kMatmulTile, ti, tj, cfg.stream_cycles_per_row});
        }
        program.code.push_back(Instruction{IsaOp::kDrain, tj, 0, cfg.drain_cycles});
      }
    } else if (op.code == lite::OpCode::kTanh) {
      const auto elements =
          static_cast<std::uint32_t>(lite_model.tensor(op.outputs[0]).num_elements());
      program.code.push_back(
          Instruction{IsaOp::kActivation, elements, 0, mxu_.elementwise_cycles(elements)});
    } else {
      throw Error("unsupported device op in program assembly");
    }
  }

  program.code.push_back(Instruction{
      IsaOp::kDmaOut, static_cast<std::uint32_t>(model.device_output_bytes), 0, 0});
  return program;
}

}  // namespace hdc::tpu
