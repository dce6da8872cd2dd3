/// \file
/// MiniLua interpreter tests: concrete semantics plus symbolic execution
/// through the engine (interning effects, numeric-for forking, pcall).

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "chef/engine.h"
#include "minilua/lua_interp.h"

namespace chef::minilua {
namespace {

struct RunResult {
    std::string output;
    LuaOutcome outcome;
};

RunResult
RunLua(const std::string& source)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    lowlevel::LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());

    LuaParseResult parsed = LuaParse(source);
    if (!parsed.ok) {
        return {"<parse error: " + parsed.error + " at line " +
                    std::to_string(parsed.error_line) + ">",
                {}};
    }
    LuaInterp interp(&rt, parsed.chunk, LuaInterp::Options{});
    RunResult result;
    result.outcome = interp.RunChunk();
    result.output = interp.output();
    if (!result.outcome.ok) {
        result.output += "<error: " + result.outcome.error_message + ">";
    }
    return result;
}

std::string
Out(const std::string& source)
{
    return RunLua(source).output;
}

TEST(MiniLuaBasics, PrintAndTypes)
{
    EXPECT_EQ(Out("print(42)\n"), "42\n");
    EXPECT_EQ(Out("print('hello')\n"), "hello\n");
    EXPECT_EQ(Out("print(true, false, nil)\n"), "true\tfalse\tnil\n");
    EXPECT_EQ(Out("print(type(1), type('s'), type({}), type(nil), "
                  "type(print))\n"),
              "number\tstring\ttable\tnil\tfunction\n");
    EXPECT_EQ(Out("print(0x10)\n"), "16\n");
}

TEST(MiniLuaBasics, Arithmetic)
{
    EXPECT_EQ(Out("print(2 + 3 * 4)\n"), "14\n");
    EXPECT_EQ(Out("print(7 / 2, 7 % 2)\n"), "3\t1\n");
    EXPECT_EQ(Out("print(-7 / 2, -7 % 2)\n"), "-4\t1\n");  // Floor.
    EXPECT_EQ(Out("print(-(3 + 4))\n"), "-7\n");
    EXPECT_EQ(Out("print('10' + 5)\n"), "15\n");  // Coercion.
}

TEST(MiniLuaBasics, ComparisonAndLogic)
{
    EXPECT_EQ(Out("print(1 < 2, 2 <= 2, 3 > 4, 1 == 1, 1 ~= 2)\n"),
              "true\ttrue\tfalse\ttrue\ttrue\n");
    EXPECT_EQ(Out("print('a' < 'b', 'abc' == 'abc')\n"), "true\ttrue\n");
    EXPECT_EQ(Out("print(1 and 2, nil and 2, false or 'x', nil or 5)\n"),
              "2\tnil\tx\t5\n");
    EXPECT_EQ(Out("print(not nil, not 0)\n"), "true\tfalse\n");
    EXPECT_EQ(Out("print(1 == '1')\n"), "false\n");  // No coercion.
}

TEST(MiniLuaBasics, StringsAndConcat)
{
    EXPECT_EQ(Out("print('ab' .. 'cd' .. 1)\n"), "abcd1\n");
    EXPECT_EQ(Out("print(#'chef')\n"), "4\n");
    EXPECT_EQ(Out("s = 'hello'\nprint(s:len(), s:upper(), s:sub(2, 4))\n"),
              "5\tHELLO\tell\n");
    EXPECT_EQ(Out("print(('abc'):byte(2))\n"), "98\n");
    EXPECT_EQ(Out("print(string.rep('ab', 3))\n"), "ababab\n");
    EXPECT_EQ(Out("print(('hay@stack'):find('@'))\n"), "4\n");
    EXPECT_EQ(Out("print(('xyz'):find('q'))\n"), "nil\n");
    EXPECT_EQ(Out("print(('a,b'):sub(-1))\n"), "b\n");
    EXPECT_EQ(Out("print(string.char(104, 105))\n"), "hi\n");
}

TEST(MiniLuaControlFlow, IfWhileRepeatFor)
{
    EXPECT_EQ(Out("x = 7\nif x > 10 then print('big') elseif x > 5 then "
                  "print('mid') else print('small') end\n"),
              "mid\n");
    EXPECT_EQ(Out("i = 0\nwhile i < 3 do i = i + 1 end\nprint(i)\n"),
              "3\n");
    EXPECT_EQ(Out("i = 0\nrepeat i = i + 1 until i >= 3\nprint(i)\n"),
              "3\n");
    EXPECT_EQ(Out("t = 0\nfor i = 1, 5 do t = t + i end\nprint(t)\n"),
              "15\n");
    EXPECT_EQ(Out("for i = 6, 1, -2 do print(i) end\n"), "6\n4\n2\n");
    EXPECT_EQ(Out("for i = 1, 10 do if i == 3 then break end "
                  "print(i) end\n"),
              "1\n2\n");
}

TEST(MiniLuaTables, ArrayAndHashParts)
{
    EXPECT_EQ(Out("t = {10, 20, 30}\nprint(t[1], t[3], #t)\n"),
              "10\t30\t3\n");
    EXPECT_EQ(Out("t = {}\nt[1] = 'a'\nt[2] = 'b'\nprint(#t, t[2])\n"),
              "2\tb\n");
    EXPECT_EQ(Out("t = {x = 1, y = 2}\nprint(t.x, t['y'])\n"), "1\t2\n");
    EXPECT_EQ(Out("t = {}\nt.name = 'chef'\nprint(t.name, t.missing)\n"),
              "chef\tnil\n");
    EXPECT_EQ(Out("t = {[5] = 'five'}\nprint(t[5])\n"), "five\n");
    EXPECT_EQ(Out("t = {a = 1}\nt.a = nil\nprint(t.a)\n"), "nil\n");
    EXPECT_EQ(Out("t = {1, 2}\ntable.insert(t, 3)\nprint(#t, t[3])\n"),
              "3\t3\n");
    EXPECT_EQ(Out("t = {1, 2, 3}\nlocal r = table.remove(t)\n"
                  "print(r, #t)\n"),
              "3\t2\n");
    EXPECT_EQ(Out("t = {'a', 'b', 'c'}\nprint(table.concat(t, '-'))\n"),
              "a-b-c\n");
    EXPECT_EQ(Out("t = {1, 2}\ntable.insert(t, 1, 0)\nprint(t[1], #t)\n"),
              "0\t3\n");
}

TEST(MiniLuaTables, PairsAndIpairs)
{
    EXPECT_EQ(Out("t = {10, 20}\nfor i, v in ipairs(t) do print(i, v) "
                  "end\n"),
              "1\t10\n2\t20\n");
    EXPECT_EQ(Out("t = {}\nt.a = 1\nt.b = 2\nlocal n = 0\n"
                  "for k, v in pairs(t) do n = n + v end\nprint(n)\n"),
              "3\n");
}

TEST(MiniLuaFunctions, DefinitionsAndCalls)
{
    EXPECT_EQ(Out("function add(a, b) return a + b end\n"
                  "print(add(2, 3))\n"),
              "5\n");
    EXPECT_EQ(Out("local function fib(n)\n"
                  "  if n < 2 then return n end\n"
                  "  return fib(n - 1) + fib(n - 2)\n"
                  "end\nprint(fib(10))\n"),
              "55\n");
    EXPECT_EQ(Out("f = function(x) return x * 2 end\nprint(f(21))\n"),
              "42\n");
}

TEST(MiniLuaFunctions, ClosuresCaptureEnvironment)
{
    const char* program = R"(local function counter()
  local n = 0
  return function()
    n = n + 1
    return n
  end
end
local c = counter()
print(c(), c(), c())
)";
    EXPECT_EQ(Out(program), "1\t2\t3\n");
}

TEST(MiniLuaFunctions, MethodsAndSelf)
{
    const char* program = R"(account = {balance = 100}
function account:deposit(amount)
  self.balance = self.balance + amount
end
account:deposit(50)
print(account.balance)
)";
    EXPECT_EQ(Out(program), "150\n");
}

TEST(MiniLuaErrors, ErrorAndPcall)
{
    EXPECT_EQ(Out("local ok, err = pcall(function() error('boom') end)\n"
                  "print(ok, err)\n"),
              "false\tboom\n");
    EXPECT_EQ(Out("local ok, v = pcall(function() return 7 end)\n"
                  "print(ok, v)\n"),
              "true\t7\n");
    RunResult result = RunLua("error('top level')\n");
    EXPECT_FALSE(result.outcome.ok);
    EXPECT_EQ(result.outcome.error_message, "top level");
}

TEST(MiniLuaErrors, RuntimeErrors)
{
    EXPECT_FALSE(RunLua("local x = nil\nprint(x.field)\n").outcome.ok);
    EXPECT_FALSE(RunLua("print(1 + {})\n").outcome.ok);
    EXPECT_FALSE(RunLua("local f = nil\nf()\n").outcome.ok);
    EXPECT_FALSE(RunLua("print(1 / 0)\n").outcome.ok);
    EXPECT_EQ(Out("local ok = pcall(function() return {} + 1 end)\n"
                  "print(ok)\n"),
              "false\n");
}

TEST(MiniLuaErrors, AssertBuiltin)
{
    EXPECT_EQ(Out("print(pcall(function() assert(false, 'nope') end))\n"),
              "false\tnope\n");
    EXPECT_EQ(Out("assert(true)\nprint('ok')\n"), "ok\n");
}

TEST(MiniLuaMisc, TonumberTostring)
{
    EXPECT_EQ(Out("print(tonumber('42'), tonumber('x'), tonumber('-7'))\n"),
              "42\tnil\t-7\n");
    EXPECT_EQ(Out("print(tostring(42) .. tostring(nil))\n"), "42nil\n");
}

TEST(MiniLuaMisc, CommentsAndLongComments)
{
    EXPECT_EQ(Out("-- comment\nprint(1) -- trailing\n--[[ long\n"
                  "comment ]]\nprint(2)\n"),
              "1\n2\n");
}

TEST(MiniLuaMisc, MultipleAssignment)
{
    EXPECT_EQ(Out("local a, b = 1, 2\na, b = b, a\nprint(a, b)\n"),
              "2\t1\n");
    EXPECT_EQ(Out("local a, b = 1\nprint(a, b)\n"), "1\tnil\n");
}

TEST(MiniLuaPrograms, TokenizerShapedLoop)
{
    const char* program = R"(local function split(s, sep)
  local parts = {}
  local current = ''
  for i = 1, #s do
    local c = s:sub(i, i)
    if c == sep then
      table.insert(parts, current)
      current = ''
    else
      current = current .. c
    end
  end
  table.insert(parts, current)
  return parts
end
local parts = split('a,b,c', ',')
print(#parts, parts[1], parts[3])
)";
    EXPECT_EQ(Out(program), "3\ta\tc\n");
}

// ---------------------------------------------------------------------------
// Ownership: an interpreter frees the object graph its run built.
// ---------------------------------------------------------------------------

/// One concrete interpreter over \p source after RunChunk.
struct LoadedLua {
    LoadedLua(const std::string& source, interp::InterpBuildOptions build)
        : rt(&tree, &solver, {})
    {
        rt.BeginRun(solver::Assignment());
        LuaParseResult parsed = LuaParse(source);
        EXPECT_TRUE(parsed.ok) << parsed.error;
        LuaInterp::Options options;
        options.build = build;
        interp = std::make_unique<LuaInterp>(&rt, parsed.chunk, options);
        EXPECT_TRUE(interp->RunChunk().ok);
    }

    /// The first value the guest's global get() returns.
    LuaValue Get()
    {
        LuaValue result;
        EXPECT_TRUE(interp->CallGlobal("get", {}, &result).ok);
        return result;
    }

    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    lowlevel::LowLevelRuntime rt;
    std::unique_ptr<LuaInterp> interp;
};

/// The value get() returns, read after its interpreter was destroyed.
LuaValue
GetAfterRun(const std::string& source)
{
    LoadedLua lua(source, interp::InterpBuildOptions::FullyOptimized());
    return lua.Get();
}

TEST(MiniLuaOwnership, ClosureStoredInItsOwnScopeIsFreed)
{
    LuaValue f = GetAfterRun(
        "local function f() return f end\n"
        "function get() return f end\n");
    ASSERT_EQ(f.type, LuaValue::Type::kFunction);
    const std::weak_ptr<LuaFunction> weak = f.function;
    f = LuaValue::Nil();
    EXPECT_TRUE(weak.expired());
}

TEST(MiniLuaOwnership, SelfReferencingTableIsFreed)
{
    LuaValue t = GetAfterRun(
        "local t = {}\n"
        "t.self = t\n"
        "function get() return t end\n");
    ASSERT_EQ(t.type, LuaValue::Type::kTable);
    const std::weak_ptr<LuaTable> weak = t.table;
    t = LuaValue::Nil();
    EXPECT_TRUE(weak.expired());
}

TEST(MiniLuaOwnership, TableReachingItselfThroughAClosureIsFreed)
{
    LuaValue t = GetAfterRun(
        "local t = {}\n"
        "t.f = function() return t end\n"
        "function get() return t end\n");
    ASSERT_EQ(t.type, LuaValue::Type::kTable);
    const std::weak_ptr<LuaTable> weak = t.table;
    t = LuaValue::Nil();
    EXPECT_TRUE(weak.expired());
}

TEST(MiniLuaHashKeys, VanillaHashesObjectsByCreationIndex)
{
    const std::string source =
        "local keys = {{}, {}, function() end, function() end, print}\n"
        "function get() return keys end\n";
    // Both interpreters are alive at once, so their objects have
    // different addresses.
    LoadedLua first(source, interp::InterpBuildOptions::Vanilla());
    LoadedLua second(source, interp::InterpBuildOptions::Vanilla());
    const LuaValue keys = first.Get();
    const LuaValue same_keys = second.Get();
    ASSERT_EQ(keys.type, LuaValue::Type::kTable);
    ASSERT_EQ(keys.table->array.size(), 5u);
    std::set<uint64_t> hashes;
    for (size_t i = 0; i < keys.table->array.size(); ++i) {
        const SymValue hash = first.interp->HashKey(keys.table->array[i]);
        EXPECT_FALSE(hash.IsSymbolic());
        EXPECT_EQ(hash.concrete(),
                  second.interp->HashKey(same_keys.table->array[i])
                      .concrete())
            << "key " << i;
        if (i < 4) {
            hashes.insert(hash.concrete());
        }
    }
    // Two tables and two closures hash apart.
    EXPECT_EQ(hashes.size(), 4u);
    EXPECT_EQ(first.interp->HashKey(keys.table->array[0]).concrete(),
              keys.table->array[0].table->serial);
    EXPECT_EQ(first.interp->HashKey(keys.table->array[2]).concrete(),
              keys.table->array[2].function->serial);
}

TEST(MiniLuaHashKeys, NeutralizedHashesEveryNonStringKeyToZero)
{
    LoadedLua lua(
        "local keys = {{}, function() end, print, true, 7}\n"
        "function get() return keys end\n",
        interp::InterpBuildOptions::FullyOptimized());
    const LuaValue keys = lua.Get();
    ASSERT_EQ(keys.type, LuaValue::Type::kTable);
    ASSERT_EQ(keys.table->array.size(), 5u);
    for (size_t i = 0; i < keys.table->array.size(); ++i) {
        const SymValue hash = lua.interp->HashKey(keys.table->array[i]);
        EXPECT_FALSE(hash.IsSymbolic()) << "key " << i;
        EXPECT_EQ(hash.concrete(), 0u) << "key " << i;
    }
}

// ---------------------------------------------------------------------------
// Symbolic execution through the engine.
// ---------------------------------------------------------------------------

Engine::RunFn
LuaRunFn(std::shared_ptr<LuaChunk> chunk, const std::string& entry,
         int str_len, interp::InterpBuildOptions build)
{
    return [chunk, entry, str_len,
            build](lowlevel::LowLevelRuntime& rt) -> Engine::GuestOutcome {
        LuaInterp::Options options;
        options.build = build;
        LuaInterp interp(&rt, chunk, options);
        LuaOutcome module_outcome = interp.RunChunk();
        if (!module_outcome.ok) {
            return {"abort", module_outcome.error_message};
        }
        interp::SymStr bytes;
        for (int i = 0; i < str_len; ++i) {
            bytes.push_back(rt.MakeSymbolicValue(
                "s" + std::to_string(i), 8, 'a'));
        }
        LuaOutcome outcome =
            interp.CallGlobal(entry, {LuaValue::Str(std::move(bytes))});
        if (!outcome.ok) {
            if (outcome.aborted) {
                return {"abort", ""};
            }
            return {"error", outcome.error_message};
        }
        return {"ok", ""};
    };
}

std::shared_ptr<LuaChunk>
ParseLuaOrDie(const std::string& source)
{
    LuaParseResult parsed = LuaParse(source);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    return parsed.chunk;
}

TEST(MiniLuaSymbolic, BranchOnSymbolicByte)
{
    const char* source = R"(function check(s)
  if s:byte(1) == 64 then
    return 'at'
  end
  return 'other'
end
)";
    Engine::Options options;
    options.max_runs = 50;
    Engine engine(options);
    engine.Explore(LuaRunFn(ParseLuaOrDie(source), "check", 2,
                            interp::InterpBuildOptions::FullyOptimized()));
    EXPECT_EQ(engine.stats().ll_paths, 2u);
    EXPECT_EQ(engine.stats().hl_paths, 2u);
}

TEST(MiniLuaSymbolic, InputDependentLoopForks)
{
    // Scanning for a comment terminator; the loop trip count depends on
    // the input (the shape of the JSON-comment bug).
    const char* source = R"(function scan(s)
  local i = 1
  while i <= #s do
    if s:sub(i, i) == '*' then
      return i
    end
    i = i + 1
  end
  return -1
end
)";
    Engine::Options options;
    options.max_runs = 60;
    Engine engine(options);
    engine.Explore(LuaRunFn(ParseLuaOrDie(source), "scan", 4,
                            interp::InterpBuildOptions::FullyOptimized()));
    // Positions 1..4 plus not-found.
    EXPECT_EQ(engine.stats().hl_paths, 5u);
}

TEST(MiniLuaSymbolic, ErrorPathsAreDistinguished)
{
    const char* source = R"(function parse(s)
  if s:sub(1, 1) == '!' then
    error('bang')
  end
  return true
end
)";
    Engine::Options options;
    options.max_runs = 40;
    Engine engine(options);
    const auto tests = engine.Explore(
        LuaRunFn(ParseLuaOrDie(source), "parse", 2,
                 interp::InterpBuildOptions::FullyOptimized()));
    bool found_error = false;
    for (const TestCase& test : tests) {
        if (test.outcome_kind == "error") {
            found_error = true;
            EXPECT_EQ(static_cast<char>(test.inputs.Get(1)), '!');
        }
    }
    EXPECT_TRUE(found_error);
}

TEST(MiniLuaSymbolic, InterningMakesVanillaForkMore)
{
    // Creating a derived string (concat) from symbolic bytes interns it
    // in the vanilla build: hashing + equality probes fork.
    const char* source = R"(function tag(s)
  local t = 'v:' .. s
  if t == 'v:ok' then
    return 1
  end
  return 0
end
)";
    auto chunk = ParseLuaOrDie(source);
    auto run_with = [&](interp::InterpBuildOptions build) {
        Engine::Options options;
        options.max_runs = 400;
        options.max_seconds = 15.0;
        Engine engine(options);
        engine.Explore(LuaRunFn(chunk, "tag", 2, build));
        return engine.stats().ll_paths;
    };
    const uint64_t vanilla =
        run_with(interp::InterpBuildOptions::Vanilla());
    const uint64_t optimized =
        run_with(interp::InterpBuildOptions::FullyOptimized());
    EXPECT_GT(vanilla, optimized);
    EXPECT_LE(optimized, 3u);
}

TEST(MiniLuaSymbolic, TableWithSymbolicKeysForksInVanilla)
{
    const char* source = R"(function store(s)
  local t = {}
  t[s] = 1
  return t[s]
end
)";
    auto chunk = ParseLuaOrDie(source);
    auto run_with = [&](interp::InterpBuildOptions build) {
        Engine::Options options;
        options.max_runs = 200;
        options.max_seconds = 15.0;
        Engine engine(options);
        engine.Explore(LuaRunFn(chunk, "store", 2, build));
        return engine.stats().ll_paths;
    };
    const uint64_t vanilla =
        run_with(interp::InterpBuildOptions::Vanilla());
    const uint64_t optimized =
        run_with(interp::InterpBuildOptions::FullyOptimized());
    EXPECT_GE(vanilla, optimized);
}

}  // namespace
}  // namespace chef::minilua
