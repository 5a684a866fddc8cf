/**
 * @file
 * Full statistics dump, in the spirit of gem5's stats.txt: every
 * counter the simulator keeps, built once as an ordered tree and
 * rendered either as nested JSON or as flat "dotted.path value" text.
 * Meant for regression diffing and offline analysis.
 */

#ifndef TCC_CORE_STATS_DUMP_HH
#define TCC_CORE_STATS_DUMP_HH

#include <ostream>

#include "core/system.hh"

namespace tcc {

/**
 * Both dumps render one ordered tree of every statistic of a System,
 * built on demand by buildStatsTree() in stats_dump.cc - the only code
 * that names a statistic - so the two formats cannot drift. The
 * top-level shape, in order:
 *
 *   config              resolved configuration (network, checkers)
 *   system              run-level aggregates
 *   network             message/byte/hop counters by traffic class
 *   pdes                parallel-engine counters (PDES runs only)
 *   metrics             epoch summary + per-probe series (when armed)
 *   contention          hot words + abort blame graph (when armed)
 *   procs[]             per-processor breakdown + transaction stats
 *   dirs[]              per-directory protocol counters
 *   tx_ledger[]         per-transaction lifecycle (empty unless the
 *                       Proc + Commit trace categories were enabled)
 *   tx_ledger_summary   ledger-wide fan-out and violation causes
 *
 * Nothing on the run path touches it.
 */

/**
 * The tree flattened to text between begin/end banner lines: one
 * "dotted.path value" line per leaf, where object keys and array
 * indices are the path segments, plus one "<path>.count N" line ahead
 * of each array's elements. Flags print as 1/0, names unquoted.
 */
void dumpStats(const System &sys, std::ostream &os);

/**
 * The tree as nested JSON on one line: stable key order and fixed
 * number formatting (integers exact, doubles "%.6g"), so the output
 * of a deterministic run is byte-identical across platforms.
 */
void dumpStatsJson(const System &sys, std::ostream &os);

} // namespace tcc

#endif // TCC_CORE_STATS_DUMP_HH
