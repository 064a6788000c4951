package repro.core

/** A 2-D point. Used both for lon/lat coordinates and for cell-grid
  * coordinates (the paper's Lemma 4 distance bounds operate on the latter).
  */
final case class Point(x: Double, y: Double) extends Serializable {
  def dist(o: Point): Double = Point.dist(x, y, o.x, o.y)
}

object Point {
  /** Euclidean distance of (ax, ay) and (bx, by), allocating nothing. */
  def dist(ax: Double, ay: Double, bx: Double, by: Double): Double = {
    val dx = ax - bx; val dy = ay - by
    math.sqrt(dx * dx + dy * dy)
  }
}

/** Axis-aligned minimum bounding rectangle (Def. 12's `rect`).
  *
  * The pivot is the centre of the rectangle and the radius is half the
  * diagonal, matching the paper's ball-tree-style node summary.
  */
final case class MBR(minX: Double, minY: Double, maxX: Double, maxY: Double)
    extends Serializable {
  require(minX <= maxX && minY <= maxY, s"degenerate MBR ($minX,$minY,$maxX,$maxY)")

  /** Pivot `o`: centre of the rectangle, also read per axis without a `Point`. */
  def pivot: Point = Point(pivotX, pivotY)
  def pivotX: Double = (minX + maxX) / 2
  def pivotY: Double = (minY + maxY) / 2

  /** Radius `r`: half of the diagonal (farthest corner-to-corner distance). */
  def radius: Double = Point.dist(pivotX, pivotY, maxX, maxY)

  /** Width of the rectangle along dimension `d` (0 = x, 1 = y). */
  def width(d: Int): Double = if (d == 0) maxX - minX else maxY - minY

  def intersects(o: MBR): Boolean =
    !(o.minX > maxX || o.maxX < minX || o.minY > maxY || o.maxY < minY)

  /** Smallest rectangle containing both. */
  def union(o: MBR): MBR =
    MBR(math.min(minX, o.minX), math.min(minY, o.minY),
        math.max(maxX, o.maxX), math.max(maxY, o.maxY))

  /** Rectangle grown by `d` on every side. */
  def expand(d: Double): MBR = MBR(minX - d, minY - d, maxX + d, maxY + d)

  def contains(p: Point): Boolean =
    p.x >= minX && p.x <= maxX && p.y >= minY && p.y <= maxY

  def area: Double = (maxX - minX) * (maxY - minY)

  /** Minimum distance from any point of this MBR to any point of `o`
    * (0 when they intersect).
    */
  def minDist(o: MBR): Double = math.sqrt(minDist2(o))

  /** The square of [[minDist]], for rect tests against δ² without a root. */
  def minDist2(o: MBR): Double = {
    val dx = gap(o.minX - maxX, minX - o.maxX); val dy = gap(o.minY - maxY, minY - o.maxY)
    dx * dx + dy * dy
  }

  /** The gap on one axis from its two signed differences, of which at
    * most one is positive: that one, else 0.
    */
  private def gap(a: Double, b: Double): Double = if (a > 0) a else if (b > 0) b else 0.0
}

object MBR {
  /** MBR of a non-empty set of points. */
  def of(points: Iterable[Point]): MBR = {
    require(points.nonEmpty, "MBR of empty point set")
    var lx = Double.MaxValue; var ly = Double.MaxValue
    var hx = Double.MinValue; var hy = Double.MinValue
    points.foreach { p =>
      if (p.x < lx) lx = p.x; if (p.x > hx) hx = p.x
      if (p.y < ly) ly = p.y; if (p.y > hy) hy = p.y
    }
    MBR(lx, ly, hx, hy)
  }
}
