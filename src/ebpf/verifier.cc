#include "src/ebpf/verifier.h"

#include <array>
#include <deque>
#include <sstream>

#include "src/common/check.h"

namespace hyperion::ebpf {

namespace {

enum class RegType : uint8_t {
  kUninit,
  kScalar,
  kPtrStack,     // offset relative to the stack base (0..512)
  kPtrCtx,       // offset into the context buffer
  kPtrMapValue,  // offset into a map value, possibly null
  kMapRef,       // argument for map helpers
};

struct RegState {
  RegType type = RegType::kUninit;
  int64_t off = 0;        // pointer offset within its region
  uint32_t map_id = 0;    // for kPtrMapValue / kMapRef
  bool maybe_null = false;
  bool known = false;     // scalar with known constant value
  uint64_t value = 0;

  friend bool operator==(const RegState&, const RegState&) = default;
};

struct MachineState {
  std::array<RegState, kNumRegisters> regs;
  size_t pc = 0;
  uint32_t depth = 0;
};

Status Err(size_t pc, const Insn& insn, const std::string& what) {
  std::ostringstream os;
  os << "insn " << pc << " (" << Disassemble(insn) << "): " << what;
  return PermissionDenied(os.str());
}

bool IsPointer(RegType t) {
  return t == RegType::kPtrStack || t == RegType::kPtrCtx || t == RegType::kPtrMapValue;
}

}  // namespace

Result<VerifyStats> Verify(const Program& prog, const MapRegistry& maps, VerifyOptions options) {
  const auto& insns = prog.insns;
  if (insns.empty()) {
    return PermissionDenied("empty program");
  }
  if (insns.size() > 65536) {
    return PermissionDenied("program too large");
  }

  VerifyStats stats;
  MachineState init;
  init.regs[1] = RegState{RegType::kPtrCtx, 0, 0, false, false, 0};
  init.regs[2] = RegState{RegType::kScalar, 0, 0, false, true, prog.ctx_size};
  init.regs[10] = RegState{RegType::kPtrStack, kStackSize, 0, false, false, 0};

  std::deque<MachineState> worklist;
  worklist.push_back(init);

  auto check_mem_access = [&](size_t pc, const Insn& insn, const RegState& base, int64_t off,
                              uint32_t size) -> Status {
    const int64_t lo = base.off + off;
    const int64_t hi = lo + size;
    switch (base.type) {
      case RegType::kPtrStack:
        if (lo < 0 || hi > kStackSize) {
          return Err(pc, insn, "stack access out of [0,512)");
        }
        return Status::Ok();
      case RegType::kPtrCtx:
        if (lo < 0 || hi > static_cast<int64_t>(prog.ctx_size)) {
          return Err(pc, insn, "context access out of bounds");
        }
        return Status::Ok();
      case RegType::kPtrMapValue: {
        if (base.maybe_null) {
          return Err(pc, insn, "map value pointer may be null (missing null check)");
        }
        const Map* map = maps.Get(base.map_id);
        if (map == nullptr) {
          return Err(pc, insn, "reference to unknown map");
        }
        if (lo < 0 || hi > static_cast<int64_t>(map->spec().value_size)) {
          return Err(pc, insn, "map value access out of bounds");
        }
        return Status::Ok();
      }
      default:
        return Err(pc, insn, "memory access through non-pointer register");
    }
  };

  while (!worklist.empty()) {
    MachineState st = std::move(worklist.front());
    worklist.pop_front();
    ++stats.paths_explored;

    while (true) {
      if (++stats.states_visited > options.max_states) {
        return PermissionDenied("verifier state budget exhausted");
      }
      if (st.pc >= insns.size()) {
        return PermissionDenied("control flow falls off the end of the program");
      }
      stats.max_depth = std::max(stats.max_depth, st.depth);
      const size_t pc = st.pc;
      const Insn& insn = insns[pc];
      const uint8_t cls = insn.Class();

      if (cls == kClassAlu64 || cls == kClassAlu) {
        const uint8_t op = insn.AluOp();
        if (insn.dst >= kNumRegisters || (insn.IsSrcReg() && insn.src >= kNumRegisters)) {
          return Err(pc, insn, "bad register number");
        }
        if (op > kAluEnd) {
          return Err(pc, insn, "unknown ALU op");
        }
        RegState& dst = st.regs[insn.dst];
        if (insn.dst == 10) {
          return Err(pc, insn, "r10 (frame pointer) is read-only");
        }
        if (op == kAluEnd) {
          if (cls != kClassAlu) {
            return Err(pc, insn, "endian op must use the 32-bit ALU class");
          }
          if (insn.imm != 16 && insn.imm != 32 && insn.imm != 64) {
            return Err(pc, insn, "endian width must be 16/32/64");
          }
          if (dst.type != RegType::kScalar) {
            return Err(pc, insn, "endian swap of a non-scalar");
          }
          dst.known = false;  // conservatively forget the constant
          st.pc = pc + 1;
          continue;
        }
        const RegState* src = insn.IsSrcReg() ? &st.regs[insn.src] : nullptr;
        if (src != nullptr && src->type == RegType::kUninit) {
          return Err(pc, insn, "read of uninitialized register");
        }
        if (op == kAluMov) {
          if (src != nullptr) {
            if (cls == kClassAlu && IsPointer(src->type)) {
              return Err(pc, insn, "32-bit move would truncate a pointer");
            }
            dst = *src;
          } else {
            dst = RegState{RegType::kScalar, 0, 0, false, true,
                           static_cast<uint64_t>(static_cast<int64_t>(insn.imm))};
          }
          st.pc = pc + 1;
          continue;
        }
        if (op == kAluNeg) {
          if (dst.type != RegType::kScalar) {
            return Err(pc, insn, "arithmetic on non-scalar");
          }
          if (dst.known) {
            dst.value = ~dst.value + 1;
          }
          st.pc = pc + 1;
          continue;
        }
        if (dst.type == RegType::kUninit) {
          return Err(pc, insn, "arithmetic on uninitialized register");
        }
        // Pointer arithmetic: only ADD/SUB with a verifier-known amount.
        if (IsPointer(dst.type)) {
          if (cls != kClassAlu64 || (op != kAluAdd && op != kAluSub)) {
            return Err(pc, insn, "unsupported operation on pointer");
          }
          if (dst.type == RegType::kPtrMapValue && dst.maybe_null) {
            return Err(pc, insn, "arithmetic on maybe-null pointer");
          }
          int64_t amount;
          if (src == nullptr) {
            amount = insn.imm;
          } else if (src->type == RegType::kScalar && src->known) {
            amount = static_cast<int64_t>(src->value);
          } else {
            return Err(pc, insn, "pointer arithmetic with unbounded scalar");
          }
          dst.off += op == kAluAdd ? amount : -amount;
          st.pc = pc + 1;
          continue;
        }
        if (dst.type == RegType::kMapRef) {
          return Err(pc, insn, "arithmetic on map reference");
        }
        if (src != nullptr && IsPointer(src->type)) {
          // scalar op pointer: allow only scalar += nothing; reject to keep
          // pointers from leaking into scalars.
          return Err(pc, insn, "pointer used as scalar operand");
        }
        // Scalar ALU: fold constants where both sides are known.
        const bool src_known = src == nullptr || (src->type == RegType::kScalar && src->known);
        uint64_t b = 0;
        if (src == nullptr) {
          b = static_cast<uint64_t>(static_cast<int64_t>(insn.imm));
        } else if (src_known) {
          b = src->value;
        }
        if (dst.known && src_known) {
          uint64_t a = dst.value;
          if (cls == kClassAlu) {
            a &= 0xffffffffull;
            b &= 0xffffffffull;
          }
          uint64_t out = 0;
          bool folded = true;
          switch (op) {
            case kAluAdd:
              out = a + b;
              break;
            case kAluSub:
              out = a - b;
              break;
            case kAluMul:
              out = a * b;
              break;
            case kAluDiv:
              out = b == 0 ? 0 : a / b;
              break;
            case kAluMod:
              out = b == 0 ? a : a % b;
              break;
            case kAluOr:
              out = a | b;
              break;
            case kAluAnd:
              out = a & b;
              break;
            case kAluXor:
              out = a ^ b;
              break;
            // Shift amounts and the sign bit follow the operand width, as
            // in the VM.
            case kAluLsh:
              out = a << (b & (cls == kClassAlu64 ? 63 : 31));
              break;
            case kAluRsh:
              out = a >> (b & (cls == kClassAlu64 ? 63 : 31));
              break;
            case kAluArsh:
              out = cls == kClassAlu64
                        ? static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63))
                        : static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
              break;
            default:
              folded = false;
              break;
          }
          if (cls == kClassAlu) {
            out &= 0xffffffffull;
          }
          dst = RegState{RegType::kScalar, 0, 0, false, folded, out};
        } else {
          dst = RegState{RegType::kScalar, 0, 0, false, false, 0};
        }
        st.pc = pc + 1;
        continue;
      }

      if (cls == kClassLd) {
        if (!insn.IsLdImm64() || pc + 1 >= insns.size()) {
          return Err(pc, insn, "malformed wide load");
        }
        if (insn.dst >= kNumRegisters) {
          return Err(pc, insn, "bad register number");
        }
        if (insn.dst == 10) {
          return Err(pc, insn, "r10 is read-only");
        }
        if (insn.src == kPseudoMapFd) {
          const auto map_id = static_cast<uint32_t>(insn.imm);
          if (maps.Get(map_id) == nullptr) {
            return Err(pc, insn, "reference to unknown map");
          }
          st.regs[insn.dst] = RegState{RegType::kMapRef, 0, map_id, false, false, 0};
        } else {
          const uint64_t value =
              (static_cast<uint64_t>(static_cast<uint32_t>(insns[pc + 1].imm)) << 32) |
              static_cast<uint32_t>(insn.imm);
          st.regs[insn.dst] = RegState{RegType::kScalar, 0, 0, false, true, value};
        }
        st.pc = pc + 2;
        continue;
      }

      if (cls == kClassLdx) {
        if (insn.dst >= kNumRegisters || insn.src >= kNumRegisters) {
          return Err(pc, insn, "bad register number");
        }
        if (insn.dst == 10) {
          return Err(pc, insn, "r10 is read-only");
        }
        const RegState& base = st.regs[insn.src];
        const uint32_t size = 1u << ((insn.Size() >> 3) == 0   ? 2
                                     : (insn.Size() == kSizeH) ? 1
                                     : (insn.Size() == kSizeB) ? 0
                                                               : 3);
        RETURN_IF_ERROR(check_mem_access(pc, insn, base, insn.off, size));
        // Loaded data is an unknown scalar.
        st.regs[insn.dst] = RegState{RegType::kScalar, 0, 0, false, false, 0};
        st.pc = pc + 1;
        continue;
      }

      if (cls == kClassStx || cls == kClassSt) {
        if (insn.dst >= kNumRegisters || (cls == kClassStx && insn.src >= kNumRegisters)) {
          return Err(pc, insn, "bad register number");
        }
        if (cls == kClassStx && insn.Mode() == kModeAtomic) {
          if (insn.imm != kAtomicAdd) {
            return Err(pc, insn, "unsupported atomic operation");
          }
          if (insn.Size() != kSizeW && insn.Size() != kSizeDw) {
            return Err(pc, insn, "atomic ops are 32/64-bit only");
          }
          if (st.regs[insn.src].type != RegType::kScalar) {
            return Err(pc, insn, "atomic add of a non-scalar");
          }
        }
        const RegState& base = st.regs[insn.dst];
        const uint32_t size = 1u << ((insn.Size() >> 3) == 0   ? 2
                                     : (insn.Size() == kSizeH) ? 1
                                     : (insn.Size() == kSizeB) ? 0
                                                               : 3);
        RETURN_IF_ERROR(check_mem_access(pc, insn, base, insn.off, size));
        if (cls == kClassStx) {
          const RegState& src = st.regs[insn.src];
          if (src.type == RegType::kUninit) {
            return Err(pc, insn, "store of uninitialized register");
          }
          if (IsPointer(src.type) && base.type != RegType::kPtrStack) {
            return Err(pc, insn, "pointer may only be spilled to the stack");
          }
        }
        st.pc = pc + 1;
        continue;
      }

      if (cls == kClassJmp || cls == kClassJmp32) {
        const uint8_t op = insn.AluOp();
        if (op > kJmpJsle) {
          return Err(pc, insn, "unknown jump op");
        }
        if (op == kJmpExit) {
          const RegState& r0 = st.regs[0];
          if (r0.type != RegType::kScalar) {
            return Err(pc, insn, "r0 must hold a scalar return value at exit");
          }
          break;  // this path is done
        }
        if (op == kJmpCall) {
          const auto helper = static_cast<HelperId>(insn.imm);
          auto require_map_ref = [&](int r) -> Status {
            if (st.regs[r].type != RegType::kMapRef) {
              return Err(pc, insn, "helper argument r1 must be a map reference");
            }
            return Status::Ok();
          };
          auto require_mem_arg = [&](int r, uint32_t len) -> Status {
            const RegState& arg = st.regs[r];
            if (!IsPointer(arg.type)) {
              return Err(pc, insn, "helper pointer argument is not a pointer");
            }
            return check_mem_access(pc, insn, arg, 0, len);
          };
          switch (helper) {
            case HelperId::kMapLookup: {
              RETURN_IF_ERROR(require_map_ref(1));
              const Map* map = maps.Get(st.regs[1].map_id);
              RETURN_IF_ERROR(require_mem_arg(2, map->spec().key_size));
              RegState r0{RegType::kPtrMapValue, 0, st.regs[1].map_id, true, false, 0};
              st.regs[0] = r0;
              break;
            }
            case HelperId::kMapUpdate: {
              RETURN_IF_ERROR(require_map_ref(1));
              const Map* map = maps.Get(st.regs[1].map_id);
              RETURN_IF_ERROR(require_mem_arg(2, map->spec().key_size));
              RETURN_IF_ERROR(require_mem_arg(3, map->spec().value_size));
              st.regs[0] = RegState{RegType::kScalar, 0, 0, false, false, 0};
              break;
            }
            case HelperId::kMapDelete: {
              RETURN_IF_ERROR(require_map_ref(1));
              const Map* map = maps.Get(st.regs[1].map_id);
              RETURN_IF_ERROR(require_mem_arg(2, map->spec().key_size));
              st.regs[0] = RegState{RegType::kScalar, 0, 0, false, false, 0};
              break;
            }
            case HelperId::kKtimeGetNs:
            case HelperId::kGetPrandomU32:
              st.regs[0] = RegState{RegType::kScalar, 0, 0, false, false, 0};
              break;
            default:
              return Err(pc, insn, "unknown helper id");
          }
          for (int r = 1; r <= 5; ++r) {
            st.regs[r] = RegState{};  // caller-saved, now uninit
          }
          st.pc = pc + 1;
          continue;
        }
        // Branches.
        const int64_t target = static_cast<int64_t>(pc) + 1 + insn.off;
        if (target < 0 || static_cast<size_t>(target) >= insns.size()) {
          return Err(pc, insn, "jump out of program");
        }
        if (target <= static_cast<int64_t>(pc)) {
          return Err(pc, insn, "back edge (loops are not supported)");
        }
        if (op == kJmpJa) {
          st.pc = static_cast<size_t>(target);
          continue;
        }
        if (insn.dst >= kNumRegisters || (insn.IsSrcReg() && insn.src >= kNumRegisters)) {
          return Err(pc, insn, "bad register number");
        }
        const RegState& dst = st.regs[insn.dst];
        if (dst.type == RegType::kUninit) {
          return Err(pc, insn, "branch on uninitialized register");
        }
        if (insn.IsSrcReg() && st.regs[insn.src].type == RegType::kUninit) {
          return Err(pc, insn, "branch on uninitialized register");
        }
        // Null-check refinement: `if rX ==/!= 0` on a maybe-null map value.
        MachineState taken = st;
        taken.pc = static_cast<size_t>(target);
        taken.depth = st.depth + 1;
        MachineState fallthrough = st;
        fallthrough.pc = pc + 1;
        fallthrough.depth = st.depth + 1;
        if (dst.type == RegType::kPtrMapValue && dst.maybe_null && !insn.IsSrcReg() &&
            insn.imm == 0) {
          if (op == kJmpJeq) {
            // taken: pointer is null -> becomes scalar 0; fallthrough: non-null.
            taken.regs[insn.dst] = RegState{RegType::kScalar, 0, 0, false, true, 0};
            fallthrough.regs[insn.dst].maybe_null = false;
          } else if (op == kJmpJne) {
            taken.regs[insn.dst].maybe_null = false;
            fallthrough.regs[insn.dst] = RegState{RegType::kScalar, 0, 0, false, true, 0};
          }
        }
        worklist.push_back(std::move(taken));
        st = std::move(fallthrough);
        continue;
      }

      return Err(pc, insn, "unknown instruction class");
    }
  }
  return stats;
}

}  // namespace hyperion::ebpf
