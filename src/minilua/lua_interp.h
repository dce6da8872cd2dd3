#ifndef CHEF_MINILUA_LUA_INTERP_H_
#define CHEF_MINILUA_LUA_INTERP_H_

/// \file
/// The MiniLua interpreter: an instrumented tree walker.
///
/// Where MiniPy demonstrates CHEF on a bytecode interpreter, MiniLua
/// demonstrates it on an AST interpreter: log_pc(node_id, node_kind) is
/// reported at the head of the statement/expression dispatch — the paper's
/// point that "CHEF's correctness does not depend on the specific
/// instrumentation pattern" (§4.1). Guest errors follow Lua's error/pcall
/// model; there is no exception hierarchy (Table 3 reports no exception
/// counts for Lua).

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "interp/build_options.h"
#include "interp/int_ops.h"
#include "interp/mem_ops.h"
#include "lowlevel/runtime.h"
#include "minilua/lua_ast.h"
#include "minilua/lua_value.h"

namespace chef::minilua {

/// Result of running guest code.
struct LuaOutcome {
    bool ok = true;
    std::string error_message;  ///< Set on uncaught error().
    bool aborted = false;       ///< Engine cut the run short.
};

class LuaInterp
{
  public:
    struct Options {
        interp::InterpBuildOptions build =
            interp::InterpBuildOptions::FullyOptimized();
        bool coverage = false;
        int max_depth = 48;
    };

    LuaInterp(lowlevel::LowLevelRuntime* rt,
              std::shared_ptr<LuaChunk> chunk, Options options);

    /// Frees the object graph the run built: drops every closure's
    /// captured environment and empties every table this interpreter
    /// created, which breaks all reference cycles among them. A table
    /// or function that outlives the interpreter loses its contents.
    ~LuaInterp();

    LuaInterp(const LuaInterp&) = delete;
    LuaInterp& operator=(const LuaInterp&) = delete;

    /// Runs the chunk body in the global environment.
    LuaOutcome RunChunk();

    /// Calls a global function (after RunChunk defined it).
    LuaOutcome CallGlobal(const std::string& name,
                          std::vector<LuaValue> args,
                          LuaValue* result = nullptr);

    const std::string& output() const { return output_; }
    const std::set<int>& covered_lines() const { return covered_lines_; }

    lowlevel::LowLevelRuntime* rt() { return rt_; }
    interp::StrOps& str_ops() { return str_ops_; }
    const interp::InterpBuildOptions& build() const
    {
        return options_.build;
    }

    // -- Value operations (used by LuaTable too) ---------------------------

    /// Lua equality as a width-1 concolic value.
    SymValue ValueEq(const LuaValue& a, const LuaValue& b);

    /// Hash for table keys (neutralization-aware). Neutralized builds
    /// hash every non-string key to 0; vanilla builds hash tables and
    /// functions by creation index, never by address.
    SymValue HashKey(const LuaValue& key);

    /// Truthiness: nil and false are false, everything else true.
    SymValue Truthy(const LuaValue& value);

    /// Interns a freshly created string (vanilla builds only).
    LuaValue NewString(SymStr bytes);

    /// Raises a Lua error with a message; execution unwinds to the
    /// nearest pcall (or the top level).
    void Error(const std::string& message);
    bool errored() const { return error_raised_; }

    /// tostring() semantics.
    SymStr ToStringValue(const LuaValue& value);

  private:
    enum class Sig : uint8_t { kNone, kBreak, kReturn, kError };

    Sig ExecBlock(const LuaAst& block, const LuaEnvPtr& env);
    Sig ExecStat(const LuaAst& stat, const LuaEnvPtr& env);
    LuaValue EvalExpr(const LuaAst& expr, const LuaEnvPtr& env);
    /// Evaluates an expression list; calls in the last position may
    /// contribute two values (pcall).
    std::vector<LuaValue> EvalExprList(
        const std::vector<LuaAstPtr>& exprs, const LuaEnvPtr& env);
    std::vector<LuaValue> EvalCallMulti(const LuaAst& call,
                                        const LuaEnvPtr& env);

    LuaValue CallFunction(const LuaValue& callee,
                          std::vector<LuaValue> args);
    std::vector<LuaValue> CallFunctionMulti(const LuaValue& callee,
                                            std::vector<LuaValue> args);
    std::vector<LuaValue> CallBuiltinMulti(int builtin_id,
                                           std::vector<LuaValue>& args);
    LuaValue CallStringMethod(const LuaValue& receiver,
                              const std::string& name,
                              std::vector<LuaValue>& args);

    void AssignTo(const LuaAst& target, const LuaEnvPtr& env,
                  LuaValue value);

    LuaValue BinOp(const LuaAst& node, const LuaEnvPtr& env);
    LuaValue Index(const LuaValue& object, const LuaValue& key);

    bool DecideTruthy(const LuaValue& value, uint64_t llpc);
    SymValue ToNumber(const LuaValue& value, bool* ok);

    void LogNode(const LuaAst& node);

    /// Creates a table or closure and records it for ~LuaInterp.
    std::shared_ptr<LuaTable> NewTable();
    std::shared_ptr<LuaFunction> NewFunction();

    lowlevel::LowLevelRuntime* rt_;
    std::shared_ptr<LuaChunk> chunk_;
    Options options_;
    interp::StrOps str_ops_;
    interp::InternTable interns_;

    /// Every table and closure this interpreter created, in creation
    /// order (the index is the object's serial).
    std::vector<std::weak_ptr<LuaTable>> tables_;
    std::vector<std::weak_ptr<LuaFunction>> functions_;

    LuaEnvPtr globals_;
    std::vector<LuaValue> return_values_;
    std::string error_message_;
    bool error_raised_ = false;
    int depth_ = 0;

    std::string output_;
    std::set<int> covered_lines_;
};

}  // namespace chef::minilua

#endif  // CHEF_MINILUA_LUA_INTERP_H_
