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

  /** The tile of cell `c`: cell `c` is bit `c & 63` of tile `c >>> 6`, an
    * 8×8 block of cells in z-order.
    */
  def tileOf(c: Long): Long = c >>> 6

  /** The membership word of the run of cells of `d` from `d(i)` on that
    * share its tile: bit `c & 63` for each cell `c` of the run. In a sorted,
    * distinct `d` the run is the next `bitCount` of the word cells.
    */
  def tileMask(d: Array[Long], i: Int): Long = {
    val tile = tileOf(d(i)); var m = 0L; var j = i
    while (j < d.length && tileOf(d(j)) == tile) { m |= 1L << (d(j) & 63); j += 1 }
    m
  }

  /** A sorted, distinct cell set grouped into runs of cells that share a
    * [[tileOf tile]]: run `r` is `cells(from(r) until from(r + 1))`, its
    * tile is `tile(r)` (ascending), its [[tileMask]] `mask(r)`, and the
    * bounding box of its cells `box(4r until 4r + 4)` = (min x, max x,
    * min y, max y), inclusive. `xy` is `packXY(cells)`. OJSP's probe,
    * [[Cover]] and [[NeighborIndex]] all read a cell set as these runs.
    */
  final class Tiles(val cells: Array[Long]) {
    val xy: Array[Long] = packXY(cells)
    val size: Int = {
      var n = 0; var i = 0
      while (i < cells.length) { i += java.lang.Long.bitCount(tileMask(cells, i)); n += 1 }
      n
    }
    val tile = new Array[Long](size)
    val mask = new Array[Long](size)
    val from = new Array[Int](size + 1)
    val box = new Array[Int](4 * size)
    locally {
      var i = 0; var r = 0
      while (r < size) {
        tile(r) = tileOf(cells(i)); mask(r) = tileMask(cells, i); from(r) = i
        val end = i + java.lang.Long.bitCount(mask(r))
        var x0 = Int.MaxValue; var x1 = Int.MinValue; var y0 = Int.MaxValue; var y1 = Int.MinValue
        while (i < end) {
          val x = (xy(i) >> 32).toInt; val y = xy(i).toInt
          x0 = math.min(x0, x); x1 = math.max(x1, x); y0 = math.min(y0, y); y1 = math.max(y1, y)
          i += 1
        }
        box(4 * r) = x0; box(4 * r + 1) = x1; box(4 * r + 2) = y0; box(4 * r + 3) = y1
        r += 1
      }
      from(size) = i
    }
  }

  /** The covered cells R of one greedy CJSP run, a two-level bitmap in the
    * spirit of Roaring (Chambi, Lemire, Kaser & Godin, SPE 2016): cell `c`
    * is a bit of the word of its [[tileOf tile]]. A [[LongTable]] maps each
    * tile to its word. A set arrives as [[Tiles]], so each run `m` costs
    * one probe, which adds `bitCount(m & ~word)` to the gain; a pick sets
    * bits and copies nothing.
    */
  final class Cover(cells: Tiles) {
    private val words = new LongTable(8)
    private var covered = 0
    add(cells)

    /** `|R|`. */
    def size: Int = covered

    /** Marginal gain `|d \ R|` (Eq. 3). */
    def gain(d: Tiles): Int = {
      var g = 0; var r = 0
      while (r < d.size) {
        val s = words.find(d.tile(r))
        g += java.lang.Long.bitCount(if (s < 0) d.mask(r) else d.mask(r) & ~words.value(s))
        r += 1
      }
      g
    }

    /** R := R ∪ d. */
    def add(d: Tiles): Unit = {
      var r = 0
      while (r < d.size) {
        val s = words.insert(d.tile(r))
        covered += java.lang.Long.bitCount(d.mask(r) & ~words.value(s))
        words.setValue(s, words.value(s) | d.mask(r))
        r += 1
      }
    }
  }

  /** Cell-based dataset distance (Def. 6): the minimum Euclidean distance
    * between the grid coordinates of any pair of cells; +∞ if one is empty.
    */
  def minDist(a: Array[Long], b: Array[Long]): Double = math.sqrt(closest(a, b, -1))

  /** Whether `dist(a, b) ≤ δ` (Def. 7, directly connected). */
  def connected(a: Array[Long], b: Array[Long], delta: Double): Boolean =
    a.nonEmpty && b.nonEmpty && closest(a, b, delta * delta) <= delta * delta

  /** The smallest squared distance of a pair of cells of `a` and `b`, or
    * the first one found ≤ `stop`: 0 at once for a shared cell, found by a
    * cheap sorted merge; +∞ if either is empty.
    */
  private def closest(a: Array[Long], b: Array[Long], stop: Double): Double = {
    if (a.isEmpty || b.isEmpty) return Double.PositiveInfinity
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
        if (d2 <= stop) return d2
        if (d2 < best) best = d2
        j += 1
      }
      i += 1
    }
    best
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

  /** Exact δ-connectivity tester over one cell set, used by every greedy
    * CJSP variant: [[connectedTo]] ≡ `minDist ≤ δ`, probing O(|other| ·
    * bucket occupancy) instead of O(|this| · |other|). The members sit in
    * a dense row-major directory of w × h square buckets of side s ≥ δ over
    * their bounding box `[lx, hx] × [ly, hy]`, so every member within δ of
    * a probe lies in its 3×3 neighbouring buckets. Bucket (⌊(x − lx) / s⌋,
    * ⌊(y − ly) / s⌋) is number `by · w + bx` and owns `xs`/`ys(offs(n)
    * until offs(n + 1))`, placed by counting sort. s starts at
    * max(1, ⌈δ⌉) and doubles until w · h ≤ 8 · |cells| + 8, so `offs`
    * stays near 32 B per member however sparse the cells. A probe reads
    * each of its three rows, clamped to the directory, as one contiguous
    * run of members: no hashing.
    *
    * The probe set arrives as [[Tiles]], and a whole run is rejected
    * first, exactly, in two ways: its box lies farther than δ from the
    * members' box (`>` δ², so δ = +∞ rejects nothing), or the buckets
    * from one before to one past its box's columns and rows hold no
    * member. Only the cells of a surviving run are probed one by one,
    * each first against the members' box in the same way.
    */
  final class NeighborIndex private (delta: Double, xy: Array[Long]) extends Serializable {
    /** Index of `cells`: [[NeighborIndex.packed]] over `packXY(cells)`. */
    def this(cells: Array[Long], delta: Double) = this(delta, packXY(cells))
    requireDelta(delta)
    private val d2max = delta * delta
    // Bounding box of the members; empty (lx > hx) when there are none.
    private var lx = Int.MaxValue; private var hx = Int.MinValue
    private var ly = Int.MaxValue; private var hy = Int.MinValue
    locally {
      var i = 0
      while (i < xy.length) {
        val x = (xy(i) >> 32).toInt; val y = xy(i).toInt
        lx = math.min(lx, x); hx = math.max(hx, x); ly = math.min(ly, y); hy = math.max(hy, y)
        i += 1
      }
    }
    private val side: Long = {
      var s = math.max(1L, math.ceil(delta).toLong) // Long.MaxValue for δ = +∞
      while (span(lx, hx, s) * span(ly, hy, s) > 8L * xy.length + 8) s *= 2
      s
    }
    private val w = span(lx, hx, side).toInt
    private val h = span(ly, hy, side).toInt
    private val offs = new Array[Int](w * h + 1)
    private val xs = new Array[Int](xy.length)
    private val ys = new Array[Int](xy.length)
    locally { // counting sort: buckets and sizes, running ends, then each member placed below its bucket's end
      val bucket = new Array[Int](xy.length)
      var i = 0
      while (i < xy.length) { // members lie inside the box, so `/` is the floor
        bucket(i) = ((xy(i).toInt.toLong - ly) / side * w + ((xy(i) >> 32).toInt.toLong - lx) / side).toInt
        offs(bucket(i)) += 1; i += 1
      }
      var n = 1
      while (n < w * h) { offs(n) += offs(n - 1); n += 1 }
      offs(w * h) = xy.length
      while (i > 0) {
        i -= 1
        val b = bucket(i); offs(b) -= 1
        xs(offs(b)) = (xy(i) >> 32).toInt; ys(offs(b)) = xy(i).toInt
      }
    }

    /** Buckets of side `s` spanning `[lo, hi]`; 0 when the span is empty. */
    private def span(lo: Int, hi: Int, s: Long): Long = if (lo > hi) 0 else (hi.toLong - lo) / s + 1
    private def col(x: Int): Long = Math.floorDiv(x.toLong - lx, side)
    private def row(y: Int): Long = Math.floorDiv(y.toLong - ly, side)

    /** The directory's side, columns and rows, and a cell's bucket column and row. */
    private[core] def shape: (Long, Int, Int) = (side, w, h)
    private[core] def bucketOf(x: Int, y: Int): (Long, Long) = (col(x), row(y))

    /** Whether the box `[x0, x1] × [y0, y1]` is within δ of the members'
      * box: per axis, the gap between the two or 0.
      */
    private def nearBox(x0: Int, x1: Int, y0: Int, y1: Int): Boolean = {
      val gx = math.max(0L, math.max(lx.toLong - x1, x0.toLong - hx)).toDouble
      val gy = math.max(0L, math.max(ly.toLong - y1, y0.toLong - hy)).toDouble
      gx * gx + gy * gy <= d2max
    }

    /** Whether a bucket from one before `[x0, x1]`'s columns to one past
      * them, in the rows likewise around `[y0, y1]`, holds a member: each
      * row's span of columns is one contiguous range of `offs`.
      */
    private def anyMemberAround(x0: Int, x1: Int, y0: Int, y1: Int): Boolean = {
      val c0 = math.max(col(x0) - 1, 0L); val c1 = math.min(col(x1) + 1, w - 1L)
      var r = math.max(row(y0) - 1, 0L); val r1 = math.min(row(y1) + 1, h - 1L)
      if (c0 > c1) return false
      while (r <= r1) {
        if (offs((r * w + c1).toInt + 1) > offs((r * w + c0).toInt)) return true
        r += 1
      }
      false
    }

    /** Whether a member of the 3×3 buckets around (x, y) is within δ of it. */
    private def nearMember(x: Int, y: Int): Boolean = {
      val bx = col(x); val by = row(y)
      val c0 = math.max(bx - 1, 0L).toInt; val c1 = math.min(bx + 1, w - 1L).toInt
      var r = math.max(by - 1, 0L).toInt; val r1 = math.min(by + 1, h - 1L).toInt
      while (r <= r1) {
        var j = offs(r * w + c0); val end = offs(r * w + c1 + 1)
        while (j < end) {
          val ddx = (x - xs(j)).toDouble; val ddy = (y - ys(j)).toDouble
          if (ddx * ddx + ddy * ddy <= d2max) return true
          j += 1
        }
        r += 1
      }
      false
    }

    /** Whether any cell of `other` is within δ of any indexed cell. */
    def connectedTo(other: Tiles): Boolean = {
      val box = other.box; val xy = other.xy
      var r = 0
      while (r < other.size) {
        val x0 = box(4 * r); val x1 = box(4 * r + 1); val y0 = box(4 * r + 2); val y1 = box(4 * r + 3)
        if (nearBox(x0, x1, y0, y1) && anyMemberAround(x0, x1, y0, y1)) {
          var i = other.from(r)
          while (i < other.from(r + 1)) {
            val x = (xy(i) >> 32).toInt; val y = xy(i).toInt
            if (nearBox(x, x, y, y) && nearMember(x, y)) return true
            i += 1
          }
        }
        r += 1
      }
      false
    }
  }

  object NeighborIndex {
    /** Index of cells given as grid coordinates packed with [[packXY]],
      * such as [[Tiles.xy]].
      */
    def packed(xy: Array[Long], delta: Double): NeighborIndex = new NeighborIndex(delta, xy)
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
