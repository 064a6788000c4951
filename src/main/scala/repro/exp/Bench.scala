package repro.exp

/** Tiny measurement harness: the one wall-clock timing rule of every
  * reproduced figure, and an aligned-table renderer shared by the
  * spark-submit jobs and the bench suites, so every table/figure
  * regenerates in the same format recorded in EXPERIMENTS.md.
  */
object Bench {

  /** Untimed warm-up runs before the timed ones (JIT compilation). */
  val Warmup = 2
  /** Timed runs; their median and interquartile range are reported. */
  val Reps = 5

  /** Wall-clock milliseconds of the [[Reps]] timed runs: their median and
    * their interquartile range, the 4th minus the 2nd of the 5 sorted runs.
    */
  final case class Timing(median: Double, iqr: Double) {
    /** `median [IQR]`, the form every table prints. */
    override def toString: String = s"${fmt(median)} [${fmt(iqr)}]"
  }

  /** [[Timing]] of `run` over [[Reps]] timed runs after [[Warmup]]
    * untimed ones.
    */
  def timeMs(run: => Any): Timing = timeMsAfter(())(_ => run)

  /** As [[timeMs]], but each run first gets its own value from `setup`
    * (say, a fresh index to write into), which is not timed.
    */
  def timeMsAfter[S](setup: => S)(run: S => Any): Timing = {
    val ts = new Array[Double](Reps)
    var i = 0
    while (i < Warmup + Reps) {
      val s = setup
      val t0 = System.nanoTime()
      run(s)
      val ms = (System.nanoTime() - t0) / 1e6
      if (i >= Warmup) ts(i - Warmup) = ms
      i += 1
    }
    java.util.Arrays.sort(ts)
    Timing(ts(Reps / 2), ts(3 * Reps / 4) - ts(Reps / 4))
  }

  /** Render rows as an aligned text table. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (s"== $title ==" +: line(header) +: rows.map(line)).mkString("\n")
  }

  def fmt(d: Double): String = f"$d%.2f"
}
