#ifndef CHEF_MINILUA_LUA_VALUE_H_
#define CHEF_MINILUA_LUA_VALUE_H_

/// \file
/// MiniLua runtime values.
///
/// Numbers are 64-bit integers (the paper's integer Lua build, §5.2).
/// Strings are immutable concolic byte vectors and — like real Lua — are
/// interned on creation in the vanilla interpreter build; the optimized
/// build eliminates interning. Tables have the classic array part plus an
/// instrumented hash part.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/str_ops.h"
#include "lowlevel/symvalue.h"

namespace chef::minilua {

using interp::SymStr;
using lowlevel::SymValue;

struct LuaTable;
struct LuaFunction;
struct LuaIterator;
class LuaInterp;

/// A Lua value. Cheap to copy (payloads are shared).
struct LuaValue {
    enum class Type : uint8_t {
        kNil,
        kBool,
        kInt,
        kStr,
        kTable,
        kFunction,
        kBuiltin,
        kIterator,  ///< pairs()/ipairs() result driving a for-in loop.
    };

    Type type = Type::kNil;
    SymValue num{0, 64};  ///< kInt payload; kBool uses width 1.
    std::shared_ptr<SymStr> str;
    std::shared_ptr<LuaTable> table;
    std::shared_ptr<LuaFunction> function;
    std::shared_ptr<LuaIterator> iterator;
    int builtin_id = 0;

    bool IsNil() const { return type == Type::kNil; }

    static LuaValue Nil() { return LuaValue(); }
    static LuaValue Bool(SymValue value);
    static LuaValue BoolC(bool value);
    static LuaValue Int(SymValue value);
    static LuaValue IntC(int64_t value);
    static LuaValue Str(SymStr value);
    static LuaValue StrC(const std::string& value);
    static LuaValue Table(std::shared_ptr<LuaTable> table);
    static LuaValue Builtin(int id);
};

const char* LuaTypeName(LuaValue::Type type);

struct LuaAst;

/// Lexical environment: a scope chain of concrete-name bindings (closures
/// capture their defining environment). A function stored in the
/// environment it captures, or a table that reaches itself, is a
/// reference cycle; the LuaInterp that created them breaks every such
/// cycle when it is destroyed.
struct LuaEnv {
    std::unordered_map<std::string, LuaValue> vars;
    std::shared_ptr<LuaEnv> parent;

    /// Finds the environment defining \p name, or null.
    LuaEnv* Resolve(const std::string& name)
    {
        for (LuaEnv* env = this; env != nullptr;
             env = env->parent.get()) {
            if (env->vars.count(name)) {
                return env;
            }
        }
        return nullptr;
    }
};

using LuaEnvPtr = std::shared_ptr<LuaEnv>;

/// A Lua closure.
struct LuaFunction {
    std::vector<std::string> params;
    const LuaAst* body = nullptr;  ///< kBlock.
    LuaEnvPtr closure;
    std::string name;  ///< For diagnostics.
    /// Creation index in the owning interpreter (an address-free hash key).
    uint32_t serial = 0;
};

/// Snapshot iterator produced by pairs()/ipairs().
struct LuaIterator {
    std::vector<std::pair<LuaValue, LuaValue>> entries;
};

/// A Lua table: dense 1-based array part + instrumented hash part.
struct LuaTable {
    struct Entry {
        LuaValue key;
        LuaValue value;
        bool alive = true;
    };

    std::vector<LuaValue> array;  ///< array[i] holds t[i+1].

    /// Hash part: bucket chains of entry indices (insertion ordered).
    std::vector<Entry> entries;
    std::vector<std::vector<uint32_t>> buckets{
        std::vector<std::vector<uint32_t>>(8)};
    size_t live_count = 0;

    /// Creation index in the owning interpreter (an address-free hash key).
    uint32_t serial = 0;

    /// Raw get/set run through the interpreter for instrumented hashing
    /// and key comparison; declared here, implemented with the interp.
    LuaValue Get(LuaInterp& interp, const LuaValue& key);
    void Set(LuaInterp& interp, const LuaValue& key, LuaValue value);

    /// The '#' border: length of the dense array part.
    int64_t Border() const;
};

}  // namespace chef::minilua

#endif  // CHEF_MINILUA_LUA_VALUE_H_
