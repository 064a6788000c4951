package repro.core

/** Operations on cell-based datasets (Def. 5): sorted arrays of distinct
  * z-order cell IDs. All set arithmetic used by OJSP/CJSP lives here so
  * that the index code and the brute-force references share one
  * implementation.
  */
object CellSet {

  /** Normalise an arbitrary cell collection into the canonical sorted,
    * distinct representation. The input is left unchanged.
    */
  def of(cells: Array[Long]): Array[Long] = sortedDistinct(cells.clone(), cells.length)

  /** Same as the array overload, for any collection. */
  def of(cells: Iterable[Long]): Array[Long] = {
    val a = cells.toArray
    sortedDistinct(a, a.length)
  }

  /** Sort `a(0 until n)` in place and compact out duplicates: the result
    * is the distinct values in ascending order, `a` itself when it is
    * exactly that, else a trimmed copy. Writes `a`.
    */
  def sortedDistinct(a: Array[Long], n: Int): Array[Long] = {
    java.util.Arrays.sort(a, 0, n)
    var m = 0; var i = 0
    while (i < n) {
      if (m == 0 || a(m - 1) != a(i)) { a(m) = a(i); m += 1 }
      i += 1
    }
    if (m == a.length) a else java.util.Arrays.copyOf(a, m)
  }

  /** `|a ∩ b|` of two sorted arrays — the OJSP objective. A linear merge,
    * unless one side is more than [[GallopRatio]] times longer: then each
    * cell of the shorter side is found in the longer by galloping
    * (adaptive intersection, Demaine, López-Ortiz & Munro, SODA 2000).
    */
  def intersectionSize(a: Array[Long], b: Array[Long]): Int =
    if (a.length / GallopRatio > b.length) gallopIntersectionSize(b, a)
    else if (b.length / GallopRatio > a.length) gallopIntersectionSize(a, b)
    else {
      var i = 0; var j = 0; var n = 0
      while (i < a.length && j < b.length) {
        val c = java.lang.Long.compare(a(i), b(j))
        if (c == 0) { n += 1; i += 1; j += 1 }
        else if (c < 0) i += 1
        else j += 1
      }
      n
    }

  /** Length ratio from which [[intersectionSize]] gallops. */
  private final val GallopRatio = 8

  /** `|small ∩ large|`: each cell of `small` is looked up in `large` with
    * [[gallop]] from the previous position, so the cost is
    * O(|small| · log(|large| / |small|)) rather than O(|small| + |large|).
    */
  private def gallopIntersectionSize(small: Array[Long], large: Array[Long]): Int = {
    var n = 0; var lo = 0; var i = 0
    while (i < small.length && lo < large.length) {
      val p = gallop(large, lo, small(i))
      if (p >= 0) { n += 1; lo = p + 1 } else lo = -p - 1
      i += 1
    }
    n
  }

  /** Position of `v` in sorted `a`, searched from `from` (every element
    * before `from` must be < v): doubling steps forward, then a binary
    * search over the last step. Returns what `Arrays.binarySearch` does.
    */
  private[core] def gallop(a: Array[Long], from: Int, v: Long): Int = {
    var lo = from; var hi = from; var step = 1
    while (hi < a.length && a(hi) < v) { lo = hi + 1; hi = lo + step; step <<= 1 }
    java.util.Arrays.binarySearch(a, lo, math.min(hi + 1, a.length), v)
  }

  /** Sorted union of two sorted arrays, by linear merge: for `BruteForce`,
    * the tests' oracles and perfbench's replays ([[Cover.add]] else).
    */
  def union(a: Array[Long], b: Array[Long]): Array[Long] = {
    val out = new Array[Long](a.length + b.length)
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      val c = java.lang.Long.compare(a(i), b(j))
      if (c == 0) { out(n) = a(i); i += 1; j += 1 }
      else if (c < 0) { out(n) = a(i); i += 1 }
      else { out(n) = b(j); j += 1 }
      n += 1
    }
    while (i < a.length) { out(n) = a(i); i += 1; n += 1 }
    while (j < b.length) { out(n) = b(j); j += 1; n += 1 }
    java.util.Arrays.copyOf(out, n)
  }

  /** Marginal gain `g(S_D, R) = |S_D ∪ R| − |R|` (Eq. 3) over a sorted R,
    * for the tests' oracles and perfbench's replays ([[Cover.gain]] else).
    */
  def marginalGain(d: Array[Long], covered: Array[Long]): Int =
    d.length - intersectionSize(d, covered)

  /** The covered cells R of one greedy CJSP run, a two-level bitmap in the
    * spirit of Roaring (Chambi, Lemire, Kaser & Godin, SPE 2016): cell `c`
    * is bit `c & 63` of the word of tile `c >>> 6`, an 8×8 block of cells
    * in z-order. A [[LongTable]] maps each tile to its word. In a sorted
    * input the cells of one tile are adjacent, so each run of them is ORed
    * into one mask `m` and costs one probe, which adds
    * `bitCount(m & ~word)` to the gain; a pick sets bits and copies nothing.
    */
  final class Cover(cells: Array[Long]) {
    private val words = new LongTable(8)
    private var covered = 0
    add(cells)

    /** `|R|`. */
    def size: Int = covered

    /** Marginal gain `|d \ R|` (Eq. 3) of a sorted, distinct `d`. */
    def gain(d: Array[Long]): Int = scan(d, write = false)

    /** R := R ∪ d, for a sorted, distinct `d`. */
    def add(d: Array[Long]): Unit = covered += scan(d, write = true)

    /** `|d \ R|`; with `write`, the new cells are also set in R. */
    private def scan(d: Array[Long], write: Boolean): Int = {
      var g = 0; var i = 0
      while (i < d.length) {
        val tile = d(i) >>> 6; var m = 0L
        while (i < d.length && (d(i) >>> 6) == tile) { m |= 1L << (d(i) & 63); i += 1 }
        val s = if (write) words.insert(tile) else words.find(tile)
        val fresh = if (s < 0) m else m & ~words.value(s)
        g += java.lang.Long.bitCount(fresh)
        if (write) words.setValue(s, words.value(s) | fresh)
      }
      g
    }
  }

  /** Cell-based dataset distance (Def. 6): the minimum Euclidean distance
    * between the grid coordinates of any pair of cells. Early-exits at 0
    * (shared cell).
    */
  def minDist(a: Array[Long], b: Array[Long]): Double = {
    if (a.isEmpty || b.isEmpty) return Double.PositiveInfinity
    // A shared cell means distance 0 — check with a cheap sorted merge first.
    if (intersectionSize(a, b) > 0) return 0.0
    val bx = new Array[Int](b.length); val by = new Array[Int](b.length)
    var j = 0
    while (j < b.length) { bx(j) = Grid.cellX(b(j)); by(j) = Grid.cellY(b(j)); j += 1 }
    var best = Double.MaxValue
    var i = 0
    while (i < a.length) {
      val ax = Grid.cellX(a(i)); val ay = Grid.cellY(a(i))
      j = 0
      while (j < b.length) {
        val dx = (ax - bx(j)).toDouble; val dy = (ay - by(j)).toDouble
        val d2 = dx * dx + dy * dy
        if (d2 < best) best = d2
        j += 1
      }
      i += 1
    }
    math.sqrt(best)
  }

  /** Whether `dist(a, b) ≤ δ` (Def. 7, directly connected). Early-exits as
    * soon as any pair is within range.
    */
  def connected(a: Array[Long], b: Array[Long], delta: Double): Boolean = {
    if (a.isEmpty || b.isEmpty) return false
    if (intersectionSize(a, b) > 0) return true
    val d2max = delta * delta
    val bx = new Array[Int](b.length); val by = new Array[Int](b.length)
    var j = 0
    while (j < b.length) { bx(j) = Grid.cellX(b(j)); by(j) = Grid.cellY(b(j)); j += 1 }
    var i = 0
    while (i < a.length) {
      val ax = Grid.cellX(a(i)); val ay = Grid.cellY(a(i))
      j = 0
      while (j < b.length) {
        val dx = (ax - bx(j)).toDouble; val dy = (ay - by(j)).toDouble
        if (dx * dx + dy * dy <= d2max) return true
        j += 1
      }
      i += 1
    }
    false
  }

  /** Reject a connectivity threshold that is negative or NaN. */
  def requireDelta(delta: Double): Unit =
    require(delta >= 0, s"delta must be a number >= 0, got $delta")

  /** Grid coordinates of each cell packed as (x:32|y:32) — decode once,
    * probe many times (the greedy CJSP loop re-tests the same datasets
    * every round).
    */
  def packXY(cells: Array[Long]): Array[Long] = {
    val out = new Array[Long](cells.length)
    var i = 0
    while (i < cells.length) {
      out(i) = (Grid.cellX(cells(i)).toLong << 32) | (Grid.cellY(cells(i)).toLong & 0xffffffffL)
      i += 1
    }
    out
  }

  /** Exact δ-connectivity tester over one cell set, backed by a uniform
    * grid of buckets of side max(1, δ): any cell within Euclidean distance
    * δ of a probe cell lies in one of the 3×3 neighbouring buckets, so
    * [[connectedTo]] is equivalent to `minDist ≤ δ` while probing
    * O(|other| · bucket occupancy) instead of O(|this| · |other|).
    * Used by every greedy CJSP variant.
    *
    * A [[LongTable]] sized for the cell count (so it never grows) numbers
    * the non-empty buckets (bx:32|by:32) in order of first appearance.
    * Bucket `n` owns the member coordinates `xs`/`ys(offs(n) until
    * offs(n + 1))`, filled by counting each bucket's members and then
    * placing them: two passes, no sort and nothing boxed.
    *
    * The first pass also records the bounding box `[lx, hx] × [ly, hy]` of
    * the member coordinates. A probe cell whose squared distance to that
    * box exceeds δ² is skipped before its 3×3 buckets are looked up. The
    * clip is exact: every member lies in the box, so the distance to the
    * box is a lower bound on the distance to each member, and a cell it
    * skips has no member within δ. Equality is kept (`>` δ², not `≥`), so
    * a cell exactly δ from the box is still probed; δ = +∞ skips nothing.
    */
  final class NeighborIndex(cells: Array[Long], delta: Double) extends Serializable {
    requireDelta(delta)
    private val b = math.max(1, math.ceil(delta).toInt)
    private val d2max = delta * delta
    private val buckets = new LongTable(cells.length)
    private val offs = new Array[Int](cells.length + 1)
    private val xs = new Array[Int](cells.length)
    private val ys = new Array[Int](cells.length)
    // Bounding box of the members; empty (lx > hx) when there are none.
    private var lx = Int.MaxValue; private var hx = Int.MinValue
    private var ly = Int.MaxValue; private var hy = Int.MinValue
    locally {
      val bucketOf = new Array[Int](cells.length)
      var i = 0
      while (i < cells.length) {
        val x = Grid.cellX(cells(i)); val y = Grid.cellY(cells(i))
        if (x < lx) lx = x; if (x > hx) hx = x
        if (y < ly) ly = y; if (y > hy) hy = y
        val n = buckets.size
        val s = buckets.insert(bucketKey(x / b, y / b))
        if (buckets.size > n) buckets.setValue(s, n)
        bucketOf(i) = buckets.value(s).toInt; offs(bucketOf(i) + 1) += 1
        i += 1
      }
      var n = 0
      while (n < buckets.size) { offs(n + 1) += offs(n); n += 1 }
      val next = java.util.Arrays.copyOf(offs, buckets.size)
      i = 0
      while (i < cells.length) {
        val p = next(bucketOf(i)); next(bucketOf(i)) = p + 1
        xs(p) = Grid.cellX(cells(i)); ys(p) = Grid.cellY(cells(i))
        i += 1
      }
    }

    private def bucketKey(bx: Int, by: Int): Long = (bx.toLong << 32) | (by.toLong & 0xffffffffL)

    /** Number of bucket `key`, or −1 when the bucket is empty. */
    private def bucket(key: Long): Int = {
      val s = buckets.find(key)
      if (s < 0) -1 else buckets.value(s).toInt
    }

    /** Whether cell (x, y) is within δ of the members' bounding box. Per
      * axis the gap is 0 inside the box's span, else the distance to its
      * nearer side.
      */
    private def nearBox(x: Int, y: Int): Boolean = {
      val gx = if (x < lx) (lx - x).toDouble else if (x > hx) (x - hx).toDouble else 0.0
      val gy = if (y < ly) (ly - y).toDouble else if (y > hy) (y - hy).toDouble else 0.0
      gx * gx + gy * gy <= d2max
    }

    /** Whether any cell of `other` is within δ of any indexed cell. */
    def connectedTo(other: Array[Long]): Boolean = connectedToPacked(packXY(other))

    /** Same, over coordinates already packed with [[packXY]]. Cells
      * farther than δ from the members' bounding box are skipped; cells
      * that fall in the same bucket as the previous probed one reuse its
      * 3×3 bucket numbers.
      */
    def connectedToPacked(other: Array[Long]): Boolean = {
      if (lx > hx) return false
      val near = new Array[Int](9)
      var lastBx = -1; var lastBy = -1
      var i = 0
      while (i < other.length) {
        val x = (other(i) >> 32).toInt; val y = other(i).toInt
        if (nearBox(x, y)) {
          val bx = x / b; val by = y / b
          if (bx != lastBx || by != lastBy) {
            var t = 0
            while (t < 9) { near(t) = bucket(bucketKey(bx + t / 3 - 1, by + t % 3 - 1)); t += 1 }
            lastBx = bx; lastBy = by
          }
          var t = 0
          while (t < 9) {
            val n = near(t)
            if (n >= 0) {
              var j = offs(n); val end = offs(n + 1)
              while (j < end) {
                val ddx = (x - xs(j)).toDouble; val ddy = (y - ys(j)).toDouble
                if (ddx * ddx + ddy * ddy <= d2max) return true
                j += 1
              }
            }
            t += 1
          }
        }
        i += 1
      }
      false
    }
  }

  /** MBR of a cell set in cell-coordinate space. The rectangle spans the
    * full extent of each member cell (a cell at (X, Y) covers
    * `[X, X+1] × [Y, Y+1]`), matching Def. 12's MBR of the dataset.
    */
  def mbr(cells: Array[Long]): MBR = {
    require(cells.nonEmpty, "MBR of empty cell set")
    var lx = Int.MaxValue; var ly = Int.MaxValue
    var hx = Int.MinValue; var hy = Int.MinValue
    var i = 0
    while (i < cells.length) {
      val x = Grid.cellX(cells(i)); val y = Grid.cellY(cells(i))
      if (x < lx) lx = x; if (x > hx) hx = x
      if (y < ly) ly = y; if (y > hy) hy = y
      i += 1
    }
    MBR(lx, ly, hx + 1, hy + 1)
  }
}
