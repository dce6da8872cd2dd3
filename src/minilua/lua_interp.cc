#include "minilua/lua_interp.h"

#include "support/diagnostics.h"

namespace chef::minilua {

using namespace chef::lowlevel;  // NOLINT
using interp::ConcreteStr;
using interp::ConcreteView;

namespace {

enum LuaBuiltin : int {
    kBPrint = 1,
    kBType,
    kBTostring,
    kBTonumber,
    kBPairs,
    kBIpairs,
    kBError,
    kBPcall,
    kBAssert,
    // string library.
    kBStrLen = 20,
    kBStrSub,
    kBStrByte,
    kBStrChar,
    kBStrFind,
    kBStrRep,
    kBStrLower,
    kBStrUpper,
    // table library.
    kBTblInsert = 40,
    kBTblRemove,
    kBTblConcat,
};

}  // namespace

const char*
LuaTypeName(LuaValue::Type type)
{
    switch (type) {
      case LuaValue::Type::kNil: return "nil";
      case LuaValue::Type::kBool: return "boolean";
      case LuaValue::Type::kInt: return "number";
      case LuaValue::Type::kStr: return "string";
      case LuaValue::Type::kTable: return "table";
      case LuaValue::Type::kFunction:
      case LuaValue::Type::kBuiltin: return "function";
      case LuaValue::Type::kIterator: return "iterator";
    }
    return "?";
}

LuaValue
LuaValue::Bool(SymValue value)
{
    LuaValue v;
    v.type = Type::kBool;
    v.num = value;
    return v;
}

LuaValue
LuaValue::BoolC(bool value)
{
    return Bool(SymValue(value ? 1 : 0, 1));
}

LuaValue
LuaValue::Int(SymValue value)
{
    LuaValue v;
    v.type = Type::kInt;
    v.num = value.width() == 64 ? value : SvSExt(value, 64);
    return v;
}

LuaValue
LuaValue::IntC(int64_t value)
{
    return Int(SymValue(static_cast<uint64_t>(value), 64));
}

LuaValue
LuaValue::Str(SymStr value)
{
    LuaValue v;
    v.type = Type::kStr;
    v.str = std::make_shared<SymStr>(std::move(value));
    return v;
}

LuaValue
LuaValue::StrC(const std::string& value)
{
    return Str(ConcreteStr(value));
}

LuaValue
LuaValue::Table(std::shared_ptr<LuaTable> table)
{
    LuaValue v;
    v.type = Type::kTable;
    v.table = std::move(table);
    return v;
}

LuaValue
LuaValue::Builtin(int id)
{
    LuaValue v;
    v.type = Type::kBuiltin;
    v.builtin_id = id;
    return v;
}

int64_t
LuaTable::Border() const
{
    return static_cast<int64_t>(array.size());
}

LuaValue
LuaTable::Get(LuaInterp& interp, const LuaValue& key)
{
    // Integer keys in the dense range live in the array part.
    if (key.type == LuaValue::Type::kInt) {
        const SymValue in_array = SvBoolAnd(
            SvSge(key.num, SymValue(1, 64)),
            SvSle(key.num, SymValue(array.size(), 64)));
        if (!array.empty() &&
            interp.rt()->Branch(in_array, CHEF_LLPC)) {
            const uint64_t index = interp::ResolveIndex(
                interp.rt(), SvSub(key.num, SymValue(1, 64)),
                array.size());
            return array[index];
        }
    }
    const SymValue hash = interp.HashKey(key);
    const uint64_t bucket =
        interp::ResolveBucket(interp.rt(), hash, buckets.size());
    for (uint32_t index : buckets[bucket]) {
        const Entry& entry = entries[index];
        if (!entry.alive) {
            continue;
        }
        if (interp.rt()->Branch(interp.ValueEq(entry.key, key),
                                CHEF_LLPC)) {
            return entry.value;
        }
        if (!interp.rt()->running()) {
            return LuaValue::Nil();
        }
    }
    return LuaValue::Nil();
}

void
LuaTable::Set(LuaInterp& interp, const LuaValue& key, LuaValue value)
{
    if (key.type == LuaValue::Type::kInt) {
        const SymValue in_array = SvBoolAnd(
            SvSge(key.num, SymValue(1, 64)),
            SvSle(key.num, SymValue(array.size(), 64)));
        if (!array.empty() &&
            interp.rt()->Branch(in_array, CHEF_LLPC)) {
            const uint64_t index = interp::ResolveIndex(
                interp.rt(), SvSub(key.num, SymValue(1, 64)),
                array.size());
            array[index] = std::move(value);
            return;
        }
        // Appending to the border extends the array part.
        if (interp.rt()->Branch(
                SvEq(key.num, SymValue(array.size() + 1, 64)),
                CHEF_LLPC)) {
            array.push_back(std::move(value));
            return;
        }
    }
    const SymValue hash = interp.HashKey(key);
    const uint64_t bucket =
        interp::ResolveBucket(interp.rt(), hash, buckets.size());
    for (uint32_t index : buckets[bucket]) {
        Entry& entry = entries[index];
        if (!entry.alive) {
            continue;
        }
        if (interp.rt()->Branch(interp.ValueEq(entry.key, key),
                                CHEF_LLPC)) {
            if (value.IsNil()) {
                entry.alive = false;
                --live_count;
            } else {
                entry.value = std::move(value);
            }
            return;
        }
        if (!interp.rt()->running()) {
            return;
        }
    }
    if (value.IsNil()) {
        return;  // Deleting an absent key is a no-op.
    }
    buckets[bucket].push_back(static_cast<uint32_t>(entries.size()));
    entries.push_back({key, std::move(value), true});
    ++live_count;
}

LuaInterp::LuaInterp(lowlevel::LowLevelRuntime* rt,
                     std::shared_ptr<LuaChunk> chunk, Options options)
    : rt_(rt),
      chunk_(std::move(chunk)),
      options_(options),
      str_ops_(rt, options.build),
      interns_(&str_ops_)
{
    globals_ = std::make_shared<LuaEnv>();
    auto& g = globals_->vars;
    g["print"] = LuaValue::Builtin(kBPrint);
    g["type"] = LuaValue::Builtin(kBType);
    g["tostring"] = LuaValue::Builtin(kBTostring);
    g["tonumber"] = LuaValue::Builtin(kBTonumber);
    g["pairs"] = LuaValue::Builtin(kBPairs);
    g["ipairs"] = LuaValue::Builtin(kBIpairs);
    g["error"] = LuaValue::Builtin(kBError);
    g["pcall"] = LuaValue::Builtin(kBPcall);
    g["assert"] = LuaValue::Builtin(kBAssert);

    auto string_lib = NewTable();
    auto add_lib_fn = [this](std::shared_ptr<LuaTable>& lib,
                             const char* name, int id) {
        lib->Set(*this, LuaValue::StrC(name), LuaValue::Builtin(id));
    };
    add_lib_fn(string_lib, "len", kBStrLen);
    add_lib_fn(string_lib, "sub", kBStrSub);
    add_lib_fn(string_lib, "byte", kBStrByte);
    add_lib_fn(string_lib, "char", kBStrChar);
    add_lib_fn(string_lib, "find", kBStrFind);
    add_lib_fn(string_lib, "rep", kBStrRep);
    add_lib_fn(string_lib, "lower", kBStrLower);
    add_lib_fn(string_lib, "upper", kBStrUpper);
    g["string"] = LuaValue::Table(string_lib);

    auto table_lib = NewTable();
    add_lib_fn(table_lib, "insert", kBTblInsert);
    add_lib_fn(table_lib, "remove", kBTblRemove);
    add_lib_fn(table_lib, "concat", kBTblConcat);
    g["table"] = LuaValue::Table(table_lib);
}

LuaInterp::~LuaInterp()
{
    // Every cycle passes through a closure or a table, so cutting both
    // frees the whole graph once the last outside reference goes.
    for (const std::weak_ptr<LuaFunction>& weak : functions_) {
        if (std::shared_ptr<LuaFunction> function = weak.lock()) {
            function->closure.reset();
        }
    }
    for (const std::weak_ptr<LuaTable>& weak : tables_) {
        if (std::shared_ptr<LuaTable> table = weak.lock()) {
            *table = LuaTable();
        }
    }
}

std::shared_ptr<LuaTable>
LuaInterp::NewTable()
{
    auto table = std::make_shared<LuaTable>();
    table->serial = static_cast<uint32_t>(tables_.size());
    tables_.push_back(table);
    return table;
}

std::shared_ptr<LuaFunction>
LuaInterp::NewFunction()
{
    auto function = std::make_shared<LuaFunction>();
    function->serial = static_cast<uint32_t>(functions_.size());
    functions_.push_back(function);
    return function;
}

void
LuaInterp::LogNode(const LuaAst& node)
{
    rt_->LogPc(node.node_id, static_cast<uint32_t>(node.kind));
    if (options_.coverage && node.line > 0) {
        covered_lines_.insert(node.line);
    }
}

void
LuaInterp::Error(const std::string& message)
{
    if (!error_raised_) {
        error_raised_ = true;
        error_message_ = message;
    }
}

SymValue
LuaInterp::Truthy(const LuaValue& value)
{
    switch (value.type) {
      case LuaValue::Type::kNil:
        return SymValue(0, 1);
      case LuaValue::Type::kBool:
        return SvNe(SvZExt(value.num, 64), SymValue(0, 64));
      default:
        return SymValue(1, 1);  // Numbers (even 0) are truthy in Lua.
    }
}

bool
LuaInterp::DecideTruthy(const LuaValue& value, uint64_t llpc)
{
    return rt_->Branch(Truthy(value), llpc);
}

SymValue
LuaInterp::ValueEq(const LuaValue& a, const LuaValue& b)
{
    if (a.type != b.type) {
        // Lua equality never coerces across types.
        return SymValue(0, 1);
    }
    switch (a.type) {
      case LuaValue::Type::kNil:
        return SymValue(1, 1);
      case LuaValue::Type::kBool:
      case LuaValue::Type::kInt:
        return SvEq(SvZExt(a.num, 64), SvZExt(b.num, 64));
      case LuaValue::Type::kStr:
        return str_ops_.Eq(*a.str, *b.str);
      case LuaValue::Type::kTable:
        return SymValue(a.table.get() == b.table.get() ? 1 : 0, 1);
      case LuaValue::Type::kFunction:
        return SymValue(a.function.get() == b.function.get() ? 1 : 0, 1);
      case LuaValue::Type::kBuiltin:
        return SymValue(a.builtin_id == b.builtin_id ? 1 : 0, 1);
      default:
        return SymValue(0, 1);
    }
}

SymValue
LuaInterp::HashKey(const LuaValue& key)
{
    if (key.type == LuaValue::Type::kNil) {
        Error("table index is nil");
        return SymValue(0, 64);
    }
    if (key.type == LuaValue::Type::kStr) {
        return str_ops_.Hash(*key.str);
    }
    if (options_.build.neutralize_hashes) {
        return SymValue(0, 64);
    }
    switch (key.type) {
      case LuaValue::Type::kInt:
        return key.num;
      case LuaValue::Type::kBool:
        return SvZExt(key.num, 64);
      case LuaValue::Type::kTable:
        return SymValue(key.table->serial, 64);
      case LuaValue::Type::kFunction:
        return SymValue(key.function->serial, 64);
      case LuaValue::Type::kBuiltin:
        return SymValue(static_cast<uint64_t>(key.builtin_id), 64);
      default:
        return SymValue(0, 64);
    }
}

LuaValue
LuaInterp::NewString(SymStr bytes)
{
    // Lua interns every string on creation (§5.2); the optimized build
    // removes the mechanism.
    if (!options_.build.avoid_symbolic_pointers && rt_->running()) {
        interns_.Intern(bytes);
    }
    return LuaValue::Str(std::move(bytes));
}

SymStr
LuaInterp::ToStringValue(const LuaValue& value)
{
    switch (value.type) {
      case LuaValue::Type::kNil:
        return ConcreteStr("nil");
      case LuaValue::Type::kBool:
        return ConcreteStr(value.num.concrete() ? "true" : "false");
      case LuaValue::Type::kInt:
        return interp::FormatInt(rt_, value.num);
      case LuaValue::Type::kStr:
        return *value.str;
      case LuaValue::Type::kTable:
        return ConcreteStr("table: 0x0");
      default:
        return ConcreteStr("function: 0x0");
    }
}

SymValue
LuaInterp::ToNumber(const LuaValue& value, bool* ok)
{
    *ok = true;
    if (value.type == LuaValue::Type::kInt) {
        return value.num;
    }
    if (value.type == LuaValue::Type::kStr) {
        SymValue parsed;
        if (interp::ParseInt(str_ops_, *value.str, 0,
                             static_cast<int>(value.str->size()),
                             &parsed)) {
            return parsed;
        }
    }
    *ok = false;
    return SymValue(0, 64);
}

// ---------------------------------------------------------------------------
// Statements.
// ---------------------------------------------------------------------------

LuaInterp::Sig
LuaInterp::ExecBlock(const LuaAst& block, const LuaEnvPtr& env)
{
    for (const LuaAstPtr& stat : block.kids) {
        if (!rt_->running() || error_raised_) {
            return Sig::kError;
        }
        const Sig signal = ExecStat(*stat, env);
        if (signal != Sig::kNone) {
            return signal;
        }
    }
    return Sig::kNone;
}

LuaInterp::Sig
LuaInterp::ExecStat(const LuaAst& stat, const LuaEnvPtr& env)
{
    LogNode(stat);
    if (!rt_->running()) {
        return Sig::kError;
    }
    switch (stat.kind) {
      case LuaAstKind::kBlock: {
        auto scope = std::make_shared<LuaEnv>();
        scope->parent = env;
        return ExecBlock(stat, scope);
      }
      case LuaAstKind::kLocal: {
        std::vector<LuaValue> values = EvalExprList(stat.kids, env);
        for (size_t i = 0; i < stat.strings.size(); ++i) {
            env->vars[stat.strings[i]] =
                i < values.size() ? values[i] : LuaValue::Nil();
        }
        return error_raised_ ? Sig::kError : Sig::kNone;
      }
      case LuaAstKind::kAssign: {
        std::vector<LuaValue> values = EvalExprList(stat.kids, env);
        if (error_raised_) {
            return Sig::kError;
        }
        for (size_t i = 0; i < stat.extra.size(); ++i) {
            AssignTo(*stat.extra[i], env,
                     i < values.size() ? values[i] : LuaValue::Nil());
            if (error_raised_) {
                return Sig::kError;
            }
        }
        return Sig::kNone;
      }
      case LuaAstKind::kExprStat:
        EvalExpr(*stat.kids[0], env);
        return error_raised_ ? Sig::kError : Sig::kNone;
      case LuaAstKind::kIf: {
        const int pairs = static_cast<int>(stat.int_value);
        for (int i = 0; i < pairs; ++i) {
            const LuaValue cond = EvalExpr(*stat.kids[2 * i], env);
            if (error_raised_) {
                return Sig::kError;
            }
            if (DecideTruthy(cond, CHEF_LLPC)) {
                auto scope = std::make_shared<LuaEnv>();
                scope->parent = env;
                return ExecBlock(*stat.kids[2 * i + 1], scope);
            }
        }
        if (stat.kids.size() > static_cast<size_t>(2 * pairs)) {
            auto scope = std::make_shared<LuaEnv>();
            scope->parent = env;
            return ExecBlock(*stat.kids[2 * pairs], scope);
        }
        return Sig::kNone;
      }
      case LuaAstKind::kWhile: {
        for (;;) {
            if (!rt_->running()) {
                return Sig::kError;
            }
            const LuaValue cond = EvalExpr(*stat.kids[0], env);
            if (error_raised_) {
                return Sig::kError;
            }
            if (!DecideTruthy(cond, CHEF_LLPC)) {
                return Sig::kNone;
            }
            auto scope = std::make_shared<LuaEnv>();
            scope->parent = env;
            const Sig signal = ExecBlock(*stat.kids[1], scope);
            if (signal == Sig::kBreak) {
                return Sig::kNone;
            }
            if (signal != Sig::kNone) {
                return signal;
            }
        }
      }
      case LuaAstKind::kRepeat: {
        for (;;) {
            if (!rt_->running()) {
                return Sig::kError;
            }
            auto scope = std::make_shared<LuaEnv>();
            scope->parent = env;
            const Sig signal = ExecBlock(*stat.kids[0], scope);
            if (signal == Sig::kBreak) {
                return Sig::kNone;
            }
            if (signal != Sig::kNone) {
                return signal;
            }
            // The until-condition sees the loop body's scope.
            const LuaValue cond = EvalExpr(*stat.kids[1], scope);
            if (error_raised_) {
                return Sig::kError;
            }
            if (DecideTruthy(cond, CHEF_LLPC)) {
                return Sig::kNone;
            }
        }
      }
      case LuaAstKind::kForNum: {
        const bool has_step = stat.kids.size() == 4;
        const LuaValue start = EvalExpr(*stat.kids[0], env);
        const LuaValue stop = EvalExpr(*stat.kids[1], env);
        LuaValue step = LuaValue::IntC(1);
        if (has_step) {
            step = EvalExpr(*stat.kids[2], env);
        }
        if (error_raised_) {
            return Sig::kError;
        }
        if (start.type != LuaValue::Type::kInt ||
            stop.type != LuaValue::Type::kInt ||
            step.type != LuaValue::Type::kInt) {
            Error("'for' initial value must be a number");
            return Sig::kError;
        }
        const int64_t step_value =
            static_cast<int64_t>(rt_->Concretize(step.num));
        if (step_value == 0) {
            Error("'for' step is zero");
            return Sig::kError;
        }
        SymValue position = start.num;
        const LuaAst& body = *stat.kids[has_step ? 3 : 2];
        for (;;) {
            if (!rt_->running()) {
                return Sig::kError;
            }
            const SymValue more =
                step_value > 0 ? SvSle(position, stop.num)
                               : SvSge(position, stop.num);
            if (!rt_->Branch(more, CHEF_LLPC)) {
                return Sig::kNone;
            }
            auto scope = std::make_shared<LuaEnv>();
            scope->parent = env;
            scope->vars[stat.name] = LuaValue::Int(position);
            const Sig signal = ExecBlock(body, scope);
            if (signal == Sig::kBreak) {
                return Sig::kNone;
            }
            if (signal != Sig::kNone) {
                return signal;
            }
            position = SvAdd(
                position, SymValue(static_cast<uint64_t>(step_value),
                                   64));
        }
      }
      case LuaAstKind::kForIn: {
        const LuaValue iterable = EvalExpr(*stat.kids[0], env);
        if (error_raised_) {
            return Sig::kError;
        }
        if (iterable.type != LuaValue::Type::kIterator) {
            Error("'for in' expects pairs() or ipairs()");
            return Sig::kError;
        }
        for (const auto& [key, value] : iterable.iterator->entries) {
            if (!rt_->running()) {
                return Sig::kError;
            }
            auto scope = std::make_shared<LuaEnv>();
            scope->parent = env;
            if (!stat.strings.empty()) {
                scope->vars[stat.strings[0]] = key;
            }
            if (stat.strings.size() > 1) {
                scope->vars[stat.strings[1]] = value;
            }
            const Sig signal = ExecBlock(*stat.kids[1], scope);
            if (signal == Sig::kBreak) {
                return Sig::kNone;
            }
            if (signal != Sig::kNone) {
                return signal;
            }
        }
        return Sig::kNone;
      }
      case LuaAstKind::kFunctionStat: {
        LuaValue function = EvalExpr(*stat.kids[0], env);
        AssignTo(*stat.extra[0], env, std::move(function));
        return error_raised_ ? Sig::kError : Sig::kNone;
      }
      case LuaAstKind::kLocalFunction: {
        // Bind the name first so the function can recurse.
        env->vars[stat.name] = LuaValue::Nil();
        LuaValue function = EvalExpr(*stat.kids[0], env);
        if (function.function) {
            function.function->name = stat.name;
        }
        env->vars[stat.name] = std::move(function);
        return Sig::kNone;
      }
      case LuaAstKind::kReturn: {
        std::vector<LuaValue> values = EvalExprList(stat.kids, env);
        if (error_raised_) {
            return Sig::kError;
        }
        return_values_ = std::move(values);
        return Sig::kReturn;
      }
      case LuaAstKind::kBreak:
        return Sig::kBreak;
      default:
        Error("unexpected statement node");
        return Sig::kError;
    }
}

void
LuaInterp::AssignTo(const LuaAst& target, const LuaEnvPtr& env,
                    LuaValue value)
{
    if (target.kind == LuaAstKind::kName) {
        LuaEnv* defining = env->Resolve(target.name);
        if (defining != nullptr) {
            defining->vars[target.name] = std::move(value);
        } else {
            globals_->vars[target.name] = std::move(value);
        }
        return;
    }
    if (target.kind == LuaAstKind::kIndex) {
        LuaValue object = EvalExpr(*target.kids[0], env);
        LuaValue key = EvalExpr(*target.kids[1], env);
        if (error_raised_) {
            return;
        }
        if (object.type != LuaValue::Type::kTable) {
            Error("attempt to index a " + std::string(LuaTypeName(
                      object.type)) + " value");
            return;
        }
        object.table->Set(*this, key, std::move(value));
        return;
    }
    Error("cannot assign to this expression");
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

std::vector<LuaValue>
LuaInterp::EvalExprList(const std::vector<LuaAstPtr>& exprs,
                        const LuaEnvPtr& env)
{
    std::vector<LuaValue> values;
    for (size_t i = 0; i < exprs.size(); ++i) {
        const bool last = (i + 1 == exprs.size());
        if (last && (exprs[i]->kind == LuaAstKind::kCall ||
                     exprs[i]->kind == LuaAstKind::kMethodCall)) {
            std::vector<LuaValue> multi = EvalCallMulti(*exprs[i], env);
            for (LuaValue& value : multi) {
                values.push_back(std::move(value));
            }
        } else {
            values.push_back(EvalExpr(*exprs[i], env));
        }
        if (error_raised_) {
            break;
        }
    }
    return values;
}

std::vector<LuaValue>
LuaInterp::EvalCallMulti(const LuaAst& call, const LuaEnvPtr& env)
{
    LogNode(call);
    LuaValue callee;
    std::vector<LuaValue> args;
    size_t first_arg = 1;
    if (call.kind == LuaAstKind::kMethodCall) {
        LuaValue receiver = EvalExpr(*call.kids[0], env);
        if (error_raised_) {
            return {};
        }
        if (receiver.type == LuaValue::Type::kStr) {
            // s:method(...) on strings resolves in the string library.
            for (size_t i = 1; i < call.kids.size(); ++i) {
                args.push_back(EvalExpr(*call.kids[i], env));
                if (error_raised_) {
                    return {};
                }
            }
            return {CallStringMethod(receiver, call.name, args)};
        }
        if (receiver.type != LuaValue::Type::kTable) {
            Error("attempt to call method on a " +
                  std::string(LuaTypeName(receiver.type)) + " value");
            return {};
        }
        callee = receiver.table->Get(*this,
                                     LuaValue::StrC(call.name));
        args.push_back(receiver);  // self
    } else {
        callee = EvalExpr(*call.kids[0], env);
    }
    if (error_raised_) {
        return {};
    }
    for (size_t i = first_arg; i < call.kids.size(); ++i) {
        const bool last = (i + 1 == call.kids.size());
        if (last && (call.kids[i]->kind == LuaAstKind::kCall ||
                     call.kids[i]->kind == LuaAstKind::kMethodCall)) {
            std::vector<LuaValue> multi =
                EvalCallMulti(*call.kids[i], env);
            for (LuaValue& value : multi) {
                args.push_back(std::move(value));
            }
        } else {
            args.push_back(EvalExpr(*call.kids[i], env));
        }
        if (error_raised_) {
            return {};
        }
    }
    if (callee.type == LuaValue::Type::kBuiltin) {
        return CallBuiltinMulti(callee.builtin_id, args);
    }
    return CallFunctionMulti(callee, std::move(args));
}

LuaValue
LuaInterp::EvalExpr(const LuaAst& expr, const LuaEnvPtr& env)
{
    if (!rt_->running() || error_raised_) {
        return LuaValue::Nil();
    }
    switch (expr.kind) {
      case LuaAstKind::kNil:
        return LuaValue::Nil();
      case LuaAstKind::kTrue:
        return LuaValue::BoolC(true);
      case LuaAstKind::kFalse:
        return LuaValue::BoolC(false);
      case LuaAstKind::kNumber:
        return LuaValue::IntC(expr.int_value);
      case LuaAstKind::kString: {
        LogNode(expr);
        return NewString(ConcreteStr(expr.str_value));
      }
      case LuaAstKind::kVararg:
        return LuaValue::Nil();
      case LuaAstKind::kName: {
        LuaEnv* defining = env->Resolve(expr.name);
        if (defining != nullptr) {
            return defining->vars[expr.name];
        }
        auto global = globals_->vars.find(expr.name);
        if (global != globals_->vars.end()) {
            return global->second;
        }
        return LuaValue::Nil();  // Unknown globals read as nil.
      }
      case LuaAstKind::kIndex: {
        LogNode(expr);
        LuaValue object = EvalExpr(*expr.kids[0], env);
        LuaValue key = EvalExpr(*expr.kids[1], env);
        if (error_raised_) {
            return LuaValue::Nil();
        }
        return Index(object, key);
      }
      case LuaAstKind::kCall:
      case LuaAstKind::kMethodCall: {
        std::vector<LuaValue> values = EvalCallMulti(expr, env);
        return values.empty() ? LuaValue::Nil() : std::move(values[0]);
      }
      case LuaAstKind::kFunction: {
        auto function = NewFunction();
        function->params = expr.strings;
        function->body = expr.kids[0].get();
        function->closure = env;
        LuaValue value;
        value.type = LuaValue::Type::kFunction;
        value.function = std::move(function);
        return value;
      }
      case LuaAstKind::kBinOp:
        return BinOp(expr, env);
      case LuaAstKind::kUnOp: {
        LogNode(expr);
        LuaValue operand = EvalExpr(*expr.kids[0], env);
        if (error_raised_) {
            return LuaValue::Nil();
        }
        if (expr.name == "not") {
            return LuaValue::Bool(SvBoolNot(Truthy(operand)));
        }
        if (expr.name == "-") {
            bool ok = false;
            const SymValue number = ToNumber(operand, &ok);
            if (!ok) {
                Error("attempt to perform arithmetic on a " +
                      std::string(LuaTypeName(operand.type)) +
                      " value");
                return LuaValue::Nil();
            }
            return LuaValue::Int(SvNeg(number));
        }
        // '#' length.
        if (operand.type == LuaValue::Type::kStr) {
            return LuaValue::IntC(
                static_cast<int64_t>(operand.str->size()));
        }
        if (operand.type == LuaValue::Type::kTable) {
            return LuaValue::IntC(operand.table->Border());
        }
        Error("attempt to get length of a " +
              std::string(LuaTypeName(operand.type)) + " value");
        return LuaValue::Nil();
      }
      case LuaAstKind::kTable: {
        LogNode(expr);
        auto table = NewTable();
        for (size_t i = 0; i + 1 < expr.kids.size(); i += 2) {
            const LuaAst* key_node = expr.kids[i].get();
            LuaValue value = EvalExpr(*expr.kids[i + 1], env);
            if (error_raised_) {
                return LuaValue::Nil();
            }
            if (key_node == nullptr) {
                table->array.push_back(std::move(value));
            } else {
                LuaValue key = EvalExpr(*key_node, env);
                if (error_raised_) {
                    return LuaValue::Nil();
                }
                table->Set(*this, key, std::move(value));
            }
        }
        return LuaValue::Table(std::move(table));
      }
      default:
        Error("unexpected expression node");
        return LuaValue::Nil();
    }
}

LuaValue
LuaInterp::Index(const LuaValue& object, const LuaValue& key)
{
    if (object.type == LuaValue::Type::kTable) {
        return object.table->Get(*this, key);
    }
    if (object.type == LuaValue::Type::kStr) {
        // Strings index into the string library (s.sub etc. via ':').
        Error("attempt to index a string value (use s:method())");
        return LuaValue::Nil();
    }
    Error("attempt to index a " +
          std::string(LuaTypeName(object.type)) + " value");
    return LuaValue::Nil();
}

LuaValue
LuaInterp::BinOp(const LuaAst& node, const LuaEnvPtr& env)
{
    const std::string& op = node.name;
    // and/or short-circuit before evaluating the right side.
    if (op == "and" || op == "or") {
        LuaValue left = EvalExpr(*node.kids[0], env);
        if (error_raised_) {
            return LuaValue::Nil();
        }
        LogNode(node);
        const bool left_truthy = DecideTruthy(left, CHEF_LLPC);
        if (op == "and") {
            return left_truthy ? EvalExpr(*node.kids[1], env) : left;
        }
        return left_truthy ? left : EvalExpr(*node.kids[1], env);
    }

    LuaValue lhs = EvalExpr(*node.kids[0], env);
    LuaValue rhs = EvalExpr(*node.kids[1], env);
    if (error_raised_) {
        return LuaValue::Nil();
    }
    LogNode(node);

    if (op == "==") {
        return LuaValue::Bool(ValueEq(lhs, rhs));
    }
    if (op == "~=") {
        return LuaValue::Bool(SvBoolNot(ValueEq(lhs, rhs)));
    }
    if (op == "..") {
        if ((lhs.type != LuaValue::Type::kStr &&
             lhs.type != LuaValue::Type::kInt) ||
            (rhs.type != LuaValue::Type::kStr &&
             rhs.type != LuaValue::Type::kInt)) {
            Error("attempt to concatenate a " +
                  std::string(LuaTypeName(lhs.type)) + " value");
            return LuaValue::Nil();
        }
        SymStr out = ToStringValue(lhs);
        const SymStr right = ToStringValue(rhs);
        out.insert(out.end(), right.begin(), right.end());
        return NewString(std::move(out));
    }
    if (op == "<" || op == "<=" || op == ">" || op == ">=") {
        if (lhs.type == LuaValue::Type::kStr &&
            rhs.type == LuaValue::Type::kStr) {
            const int ordering = str_ops_.Compare(*lhs.str, *rhs.str);
            bool result = false;
            if (op == "<") result = ordering < 0;
            else if (op == "<=") result = ordering <= 0;
            else if (op == ">") result = ordering > 0;
            else result = ordering >= 0;
            return LuaValue::BoolC(result);
        }
        if (lhs.type == LuaValue::Type::kInt &&
            rhs.type == LuaValue::Type::kInt) {
            if (op == "<") return LuaValue::Bool(SvSlt(lhs.num, rhs.num));
            if (op == "<=") return LuaValue::Bool(SvSle(lhs.num, rhs.num));
            if (op == ">") return LuaValue::Bool(SvSgt(lhs.num, rhs.num));
            return LuaValue::Bool(SvSge(lhs.num, rhs.num));
        }
        Error("attempt to compare " +
              std::string(LuaTypeName(lhs.type)) + " with " +
              LuaTypeName(rhs.type));
        return LuaValue::Nil();
    }

    // Arithmetic (with Lua's string->number coercion).
    bool lhs_ok = false;
    bool rhs_ok = false;
    const SymValue a = ToNumber(lhs, &lhs_ok);
    const SymValue b = ToNumber(rhs, &rhs_ok);
    if (!lhs_ok || !rhs_ok) {
        Error("attempt to perform arithmetic on a " +
              std::string(LuaTypeName(
                  (!lhs_ok ? lhs : rhs).type)) + " value");
        return LuaValue::Nil();
    }
    if (op == "+") return LuaValue::Int(SvAdd(a, b));
    if (op == "-") return LuaValue::Int(SvSub(a, b));
    if (op == "*") return LuaValue::Int(SvMul(a, b));
    if (op == "/" || op == "%") {
        if (rt_->Branch(SvEq(b, SymValue(0, 64)), CHEF_LLPC)) {
            Error("attempt to divide by zero");
            return LuaValue::Nil();
        }
        // Lua floor division / modulo semantics.
        const SymValue q = SvSDiv(a, b);
        const SymValue r = SvSRem(a, b);
        const SymValue adjust = SvBoolAnd(
            SvNe(r, SymValue(0, 64)),
            SvNe(SvSlt(a, SymValue(0, 64)),
                 SvSlt(b, SymValue(0, 64))));
        if (op == "/") {
            return LuaValue::Int(
                SvIte(adjust, SvSub(q, SymValue(1, 64)), q));
        }
        return LuaValue::Int(SvIte(adjust, SvAdd(r, b), r));
    }
    Error("unsupported operator '" + op + "'");
    return LuaValue::Nil();
}

// ---------------------------------------------------------------------------
// Calls.
// ---------------------------------------------------------------------------

LuaValue
LuaInterp::CallFunction(const LuaValue& callee, std::vector<LuaValue> args)
{
    std::vector<LuaValue> values =
        CallFunctionMulti(callee, std::move(args));
    return values.empty() ? LuaValue::Nil() : std::move(values[0]);
}

std::vector<LuaValue>
LuaInterp::CallFunctionMulti(const LuaValue& callee,
                             std::vector<LuaValue> args)
{
    if (callee.type == LuaValue::Type::kBuiltin) {
        return CallBuiltinMulti(callee.builtin_id, args);
    }
    if (callee.type != LuaValue::Type::kFunction) {
        Error("attempt to call a " +
              std::string(LuaTypeName(callee.type)) + " value");
        return {};
    }
    if (++depth_ > options_.max_depth) {
        --depth_;
        Error("stack overflow");
        return {};
    }
    auto scope = std::make_shared<LuaEnv>();
    scope->parent = callee.function->closure;
    for (size_t i = 0; i < callee.function->params.size(); ++i) {
        scope->vars[callee.function->params[i]] =
            i < args.size() ? std::move(args[i]) : LuaValue::Nil();
    }
    return_values_.clear();
    const Sig signal = ExecBlock(*callee.function->body, scope);
    --depth_;
    if (signal == Sig::kReturn) {
        return std::move(return_values_);
    }
    return {};
}

std::vector<LuaValue>
LuaInterp::CallBuiltinMulti(int builtin_id, std::vector<LuaValue>& args)
{
    switch (builtin_id) {
      case kBPrint: {
        SymStr line;
        for (size_t i = 0; i < args.size(); ++i) {
            if (i > 0) {
                line.emplace_back('\t', 8);
            }
            const SymStr text = ToStringValue(args[i]);
            line.insert(line.end(), text.begin(), text.end());
        }
        output_ += ConcreteView(line);
        output_ += '\n';
        return {LuaValue::Nil()};
      }
      case kBType:
        return {LuaValue::StrC(
            args.empty() ? "nil" : LuaTypeName(args[0].type))};
      case kBTostring:
        return {NewString(
            ToStringValue(args.empty() ? LuaValue::Nil() : args[0]))};
      case kBTonumber: {
        if (args.empty()) {
            return {LuaValue::Nil()};
        }
        bool ok = false;
        const SymValue number = ToNumber(args[0], &ok);
        return {ok ? LuaValue::Int(number) : LuaValue::Nil()};
      }
      case kBPairs:
      case kBIpairs: {
        if (args.empty() || args[0].type != LuaValue::Type::kTable) {
            Error("bad argument to 'pairs' (table expected)");
            return {LuaValue::Nil()};
        }
        auto iterator = std::make_shared<LuaIterator>();
        const LuaTable& table = *args[0].table;
        for (size_t i = 0; i < table.array.size(); ++i) {
            iterator->entries.push_back(
                {LuaValue::IntC(static_cast<int64_t>(i + 1)),
                 table.array[i]});
        }
        if (builtin_id == kBPairs) {
            for (const auto& entry : table.entries) {
                if (entry.alive) {
                    iterator->entries.push_back(
                        {entry.key, entry.value});
                }
            }
        }
        LuaValue value;
        value.type = LuaValue::Type::kIterator;
        value.iterator = std::move(iterator);
        return {value};
      }
      case kBError: {
        const std::string message =
            args.empty() ? "error"
                         : ConcreteView(ToStringValue(args[0]));
        Error(message);
        return {};
      }
      case kBPcall: {
        if (args.empty()) {
            Error("bad argument to 'pcall'");
            return {};
        }
        LuaValue function = args[0];
        std::vector<LuaValue> call_args(args.begin() + 1, args.end());
        const LuaValue result =
            CallFunction(function, std::move(call_args));
        if (error_raised_) {
            // pcall catches the error (unless the run was aborted).
            if (!rt_->running()) {
                return {};
            }
            LuaValue message = LuaValue::StrC(error_message_);
            error_raised_ = false;
            error_message_.clear();
            return {LuaValue::BoolC(false), std::move(message)};
        }
        return {LuaValue::BoolC(true), result};
      }
      case kBAssert: {
        if (args.empty() ||
            !rt_->Branch(Truthy(args[0]), CHEF_LLPC)) {
            Error(args.size() > 1
                      ? ConcreteView(ToStringValue(args[1]))
                      : "assertion failed!");
            return {};
        }
        return {args[0]};
      }
      // ---- string library ---------------------------------------------
      case kBStrLen:
      case kBStrSub:
      case kBStrByte:
      case kBStrFind:
      case kBStrRep:
      case kBStrLower:
      case kBStrUpper: {
        if (args.empty() || args[0].type != LuaValue::Type::kStr) {
            Error("bad argument (string expected)");
            return {};
        }
        LuaValue receiver = args[0];
        std::vector<LuaValue> rest(args.begin() + 1, args.end());
        std::string name;
        switch (builtin_id) {
          case kBStrLen: name = "len"; break;
          case kBStrSub: name = "sub"; break;
          case kBStrByte: name = "byte"; break;
          case kBStrFind: name = "find"; break;
          case kBStrRep: name = "rep"; break;
          case kBStrLower: name = "lower"; break;
          default: name = "upper"; break;
        }
        return {CallStringMethod(receiver, name, rest)};
      }
      case kBStrChar: {
        SymStr out;
        for (const LuaValue& arg : args) {
            if (arg.type != LuaValue::Type::kInt) {
                Error("bad argument to 'char'");
                return {};
            }
            out.push_back(SvTrunc(arg.num, 8));
        }
        return {NewString(std::move(out))};
      }
      // ---- table library ------------------------------------------------
      case kBTblInsert: {
        if (args.size() < 2 ||
            args[0].type != LuaValue::Type::kTable) {
            Error("bad argument to 'insert'");
            return {};
        }
        LuaTable& table = *args[0].table;
        if (args.size() == 2) {
            table.array.push_back(args[1]);
        } else {
            const int64_t position = static_cast<int64_t>(
                rt_->Concretize(args[1].num));
            if (position < 1 ||
                position >
                    static_cast<int64_t>(table.array.size()) + 1) {
                Error("bad position to 'insert'");
                return {};
            }
            table.array.insert(table.array.begin() + (position - 1),
                               args[2]);
        }
        return {LuaValue::Nil()};
      }
      case kBTblRemove: {
        if (args.empty() || args[0].type != LuaValue::Type::kTable) {
            Error("bad argument to 'remove'");
            return {};
        }
        LuaTable& table = *args[0].table;
        if (table.array.empty()) {
            return {LuaValue::Nil()};
        }
        int64_t position = static_cast<int64_t>(table.array.size());
        if (args.size() > 1) {
            position =
                static_cast<int64_t>(rt_->Concretize(args[1].num));
            if (position < 1 ||
                position > static_cast<int64_t>(table.array.size())) {
                Error("bad position to 'remove'");
                return {};
            }
        }
        LuaValue removed = table.array[position - 1];
        table.array.erase(table.array.begin() + (position - 1));
        return {removed};
      }
      case kBTblConcat: {
        if (args.empty() || args[0].type != LuaValue::Type::kTable) {
            Error("bad argument to 'concat'");
            return {};
        }
        SymStr sep;
        if (args.size() > 1 &&
            args[1].type == LuaValue::Type::kStr) {
            sep = *args[1].str;
        }
        SymStr out;
        const LuaTable& table = *args[0].table;
        for (size_t i = 0; i < table.array.size(); ++i) {
            if (i > 0) {
                out.insert(out.end(), sep.begin(), sep.end());
            }
            const SymStr text = ToStringValue(table.array[i]);
            out.insert(out.end(), text.begin(), text.end());
        }
        return {NewString(std::move(out))};
      }
      default:
        Error("unknown builtin");
        return {};
    }
}

LuaValue
LuaInterp::CallStringMethod(const LuaValue& receiver,
                            const std::string& name,
                            std::vector<LuaValue>& args)
{
    const SymStr& s = *receiver.str;
    auto int_arg = [this, &args](size_t i, int64_t fallback) -> int64_t {
        if (i >= args.size() ||
            args[i].type != LuaValue::Type::kInt) {
            return fallback;
        }
        return static_cast<int64_t>(rt_->Concretize(args[i].num));
    };

    if (name == "len") {
        return LuaValue::IntC(static_cast<int64_t>(s.size()));
    }
    if (name == "sub") {
        int64_t begin = int_arg(0, 1);
        int64_t end = int_arg(1, -1);
        const int64_t n = static_cast<int64_t>(s.size());
        if (begin < 0) begin = std::max<int64_t>(n + begin + 1, 1);
        if (begin < 1) begin = 1;
        if (end < 0) end = n + end + 1;
        if (end > n) end = n;
        SymStr out;
        for (int64_t i = begin; i <= end; ++i) {
            out.push_back(s[static_cast<size_t>(i - 1)]);
        }
        return NewString(std::move(out));
    }
    if (name == "byte") {
        const int64_t position = int_arg(0, 1);
        if (position < 1 ||
            position > static_cast<int64_t>(s.size())) {
            return LuaValue::Nil();
        }
        return LuaValue::Int(
            SvZExt(s[static_cast<size_t>(position - 1)], 64));
    }
    if (name == "find") {
        // Plain substring find (no patterns), 1-based.
        if (args.empty() || args[0].type != LuaValue::Type::kStr) {
            Error("bad argument to 'find'");
            return LuaValue::Nil();
        }
        const int64_t init = int_arg(1, 1);
        const int start =
            static_cast<int>(std::max<int64_t>(init - 1, 0));
        const int position = str_ops_.Find(s, *args[0].str, start);
        if (position < 0) {
            return LuaValue::Nil();
        }
        return LuaValue::IntC(position + 1);
    }
    if (name == "rep") {
        if (args.empty() || args[0].type != LuaValue::Type::kInt) {
            Error("bad argument to 'rep'");
            return LuaValue::Nil();
        }
        // Symbolic repetition counts are input-dependent allocations.
        const uint64_t count = interp::ResolveAllocationSize(
            rt_, args[0].num, options_.build, 4096);
        SymStr out;
        for (uint64_t i = 0; i < count; ++i) {
            out.insert(out.end(), s.begin(), s.end());
        }
        return NewString(std::move(out));
    }
    if (name == "lower" || name == "upper") {
        SymStr out;
        out.reserve(s.size());
        for (const SymValue& byte : s) {
            rt_->CountStep();
            out.push_back(name == "lower" ? str_ops_.ToLower(byte)
                                          : str_ops_.ToUpper(byte));
        }
        return NewString(std::move(out));
    }
    Error("unknown string method '" + name + "'");
    return LuaValue::Nil();
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

LuaOutcome
LuaInterp::RunChunk()
{
    error_raised_ = false;
    error_message_.clear();
    auto scope = std::make_shared<LuaEnv>();
    scope->parent = globals_;
    ExecBlock(*chunk_->body, scope);
    // Chunk-level locals that name functions are commonly used as module
    // entry points; promote them so CallGlobal can find them.
    for (auto& [name, value] : scope->vars) {
        if (!globals_->vars.count(name)) {
            globals_->vars[name] = value;
        }
    }
    LuaOutcome outcome;
    if (!rt_->running()) {
        outcome.ok = false;
        outcome.aborted = true;
        return outcome;
    }
    if (error_raised_) {
        outcome.ok = false;
        outcome.error_message = error_message_;
        error_raised_ = false;
        return outcome;
    }
    return outcome;
}

LuaOutcome
LuaInterp::CallGlobal(const std::string& name,
                      std::vector<LuaValue> args, LuaValue* result)
{
    LuaOutcome outcome;
    auto it = globals_->vars.find(name);
    if (it == globals_->vars.end() ||
        (it->second.type != LuaValue::Type::kFunction &&
         it->second.type != LuaValue::Type::kBuiltin)) {
        outcome.ok = false;
        outcome.error_message =
            "attempt to call a nil value (global '" + name + "')";
        return outcome;
    }
    const LuaValue value = CallFunction(it->second, std::move(args));
    if (!rt_->running()) {
        outcome.ok = false;
        outcome.aborted = true;
        return outcome;
    }
    if (error_raised_) {
        outcome.ok = false;
        outcome.error_message = error_message_;
        error_raised_ = false;
        return outcome;
    }
    if (result != nullptr) {
        *result = value;
    }
    return outcome;
}

}  // namespace chef::minilua
