// Fixture: plan-bypass — a render that reaches for the cell cache or simulates (not compiled).
pub fn fig_bad(cache: &CellCache) {
    let cell = cache.run(&mix_cell_inputs(7));
    draw(cell);
}

pub fn fig_simulates() {
    draw(&leakage_experiment(LeakageConfig::default()));
}

pub fn fig_good(results: &FigureResults) {
    draw(&results.runs[0]);
}
