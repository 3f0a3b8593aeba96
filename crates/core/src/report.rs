//! Report generation: render every experiment to text and CSV files.

use crate::engine::Ctx;
use crate::experiments::{all_experiments, Artifact};
use crate::extensions::extension_experiments;
use std::fs;
use std::io;
use std::path::Path;

/// Run every registered experiment — the paper's 20 artifacts plus the
/// extension studies — writing `<id>.txt` and `<id>.csv` into `out_dir`
/// (created if missing) plus an `index.txt` summary. Returns the artifacts.
pub fn generate_report(out_dir: &Path) -> io::Result<Vec<Artifact>> {
    fs::create_dir_all(out_dir)?;
    let ctx = Ctx::new();
    let mut artifacts = Vec::new();
    let mut index = String::new();
    for exp in all_experiments().into_iter().chain(extension_experiments()) {
        let artifact = (exp.run)(&ctx);
        fs::write(out_dir.join(format!("{}.txt", exp.id)), artifact.to_text())?;
        fs::write(out_dir.join(format!("{}.csv", exp.id)), artifact.to_csv())?;
        index.push_str(&format!(
            "{:8}  [Sec. {:5}]  {}\n",
            exp.id, exp.section, exp.title
        ));
        artifacts.push(artifact);
    }
    fs::write(out_dir.join("index.txt"), index)?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_writes_all_files() {
        let dir = std::env::temp_dir().join("cluster-eval-report-test");
        let _ = fs::remove_dir_all(&dir);
        let artifacts = generate_report(&dir).expect("report generated");
        assert_eq!(artifacts.len(), 27, "20 paper artifacts + 7 extensions");
        for exp in all_experiments().into_iter().chain(extension_experiments()) {
            assert!(dir.join(format!("{}.txt", exp.id)).exists());
            assert!(dir.join(format!("{}.csv", exp.id)).exists());
        }
        let index = fs::read_to_string(dir.join("index.txt")).unwrap();
        assert!(index.contains("fig16"));
        let _ = fs::remove_dir_all(&dir);
    }
}
