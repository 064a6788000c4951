package repro.perfbench

import java.io.PrintWriter
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span has a name, a start, an end, a parent and the index of the
  * operation it belongs to. Spans are recorded only by the benchmark's own
  * code, around calls into one layer's public functions; the program is
  * not instrumented. A layer's self time is its spans' durations minus the
  * time covered by their child spans, accumulated as spans close.
  *
  * [[timed]] is a span that is not stored, for calls made hundreds of
  * times per operation (per-leaf bounds): its time still counts as its own
  * layer's self time and is still subtracted from the enclosing span.
  */
final class Tracer(maxStored: Int = 200000) {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIx = mutable.HashMap.empty[String, Int]

  // Stored spans, columnar.
  private val sName = mutable.ArrayBuffer.empty[Int]
  private val sParent = mutable.ArrayBuffer.empty[Int]
  private val sOp = mutable.ArrayBuffer.empty[Int]
  private val sStart = mutable.ArrayBuffer.empty[Long]
  private val sEnd = mutable.ArrayBuffer.empty[Long]
  private var dropped = 0L

  // Open-span stack: name index, stored-span id (-1 if not stored), start,
  // and the child time accumulated so far.
  private val stName = new Array[Int](256)
  private val stId = new Array[Int](256)
  private val stStart = new Array[Long](256)
  private val stChild = new Array[Long](256)
  private var depth = 0

  private var selfNs = new Array[Long](64)
  private val counters = mutable.LinkedHashMap.empty[String, Double]

  /** Index of the operation the next spans belong to (-1: setup). */
  var op: Int = -1

  private def ix(name: String): Int = nameIx.getOrElseUpdate(name, {
    names += name
    if (names.length > selfNs.length) selfNs = java.util.Arrays.copyOf(selfNs, selfNs.length * 2)
    names.length - 1
  })

  private def open(name: String, store: Boolean): Unit = {
    val n = ix(name)
    var id = -1
    if (store) {
      if (sName.length < maxStored) {
        id = sName.length
        sName += n; sParent += (if (depth > 0) stId(depth - 1) else -1); sOp += op
        sStart += 0L; sEnd += 0L
      } else dropped += 1
    }
    stName(depth) = n; stId(depth) = id; stChild(depth) = 0L
    depth += 1
    stStart(depth - 1) = System.nanoTime()
  }

  private def close(): Unit = {
    val end = System.nanoTime()
    depth -= 1
    val dur = end - stStart(depth)
    val n = stName(depth)
    selfNs(n) += dur - stChild(depth)
    if (depth > 0) stChild(depth - 1) += dur
    val id = stId(depth)
    if (id >= 0) { sStart(id) = stStart(depth); sEnd(id) = end }
  }

  /** Run `body` inside a stored span. */
  def span[A](name: String)(body: => A): A = {
    open(name, store = true)
    try body finally close()
  }

  /** Run `body` inside an unstored span (self time only). */
  def timed[A](name: String)(body: => A): A = {
    open(name, store = false)
    try body finally close()
  }

  /** Add `n` to counter `name`. */
  def count(name: String, n: Double = 1.0): Unit =
    counters.update(name, counters.getOrElse(name, 0.0) + n)

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  /** Self time of layer `name` in milliseconds, summed over all spans. */
  def selfMs(name: String): Double = nameIx.get(name).fold(0.0)(i => selfNs(i) / 1e6)

  /** Forget accumulated self times and counters (spans stay stored). */
  def resetTotals(): Unit = { java.util.Arrays.fill(selfNs, 0L); counters.clear() }

  /** Write stored spans as TSV: id, parent, op, name, start_ns, end_ns. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = new PrintWriter(path.toFile, "UTF-8")
    try {
      w.println(s"# spans=${sName.length} dropped=$dropped")
      w.println("id\tparent\top\tname\tstart_ns\tend_ns")
      var i = 0
      while (i < sName.length) {
        w.println(s"$i\t${sParent(i)}\t${sOp(i)}\t${names(sName(i))}\t${sStart(i)}\t${sEnd(i)}")
        i += 1
      }
    } finally w.close()
  }
}
