package repro.exp

/** Tiny measurement harness: wall-clock timing with warmup, and an
  * aligned-table renderer shared by the spark-submit jobs and the bench
  * suites, so every table/figure regenerates in the same format recorded
  * in EXPERIMENTS.md.
  */
object Bench {

  /** Milliseconds for one evaluation of `f` (forcing the value). */
  def timeMs[A](f: => A): Double = {
    val t0 = System.nanoTime()
    val r = f
    identity(r)
    (System.nanoTime() - t0) / 1e6
  }

  /** Median-of-`reps` timing after `warmup` unmeasured runs. */
  def medianMs[A](warmup: Int = 1, reps: Int = 3)(f: => A): Double = {
    var i = 0
    while (i < warmup) { f; i += 1 }
    val ts = Array.fill(reps)(timeMs(f)).sorted
    ts(ts.length / 2)
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
