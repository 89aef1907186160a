import csv_cell_diff


def write(path, rows):
    path.write_text("# tactsqueeze 0.1.0\n# engine=exact\n" + "".join(r + "\n" for r in rows))
    return str(path)


def test_moved_columns_with_rows_and_worst_change(tmp_path, capsys):
    a = write(tmp_path / "a.csv", ["n,x,y,status", "2,1.0,0,ok", "3,2.0,0,ok", "4,4.0,5,ok"])
    b = write(tmp_path / "b.csv", ["n,x,y,status", "2,1.0,1e-16,ok", "3,2.2,0,ok",
                                   "4,4.4,5,bad"])
    moved = csv_cell_diff.moved_columns(csv_cell_diff.read_rows(a), csv_cell_diff.read_rows(b))
    assert list(moved) == ["y", "x", "status"]
    assert (moved["x"].rows, moved["y"].rows, moved["status"].rows) == (2, 1, 1)
    assert abs(moved["x"].worst_relative - 0.2 / 2.2) <= 1e-15
    assert moved["y"].worst_relative == 1.0 and moved["y"].worst_absolute == 1e-16
    assert moved["status"].text and not moved["x"].text
    assert csv_cell_diff.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines()[1].startswith("x: 2 rows, worst 0.0909 rel")


def test_same_cells_and_incomparable_files(tmp_path, capsys):
    a = write(tmp_path / "a.csv", ["n,x", "2,1.0"])
    assert csv_cell_diff.main([a, a]) == 0
    assert capsys.readouterr().out == "no cell moved\n"
    b = write(tmp_path / "b.csv", ["n,z", "2,1.0"])
    c = write(tmp_path / "c.csv", ["n,x", "2,1.0", "3,1.0"])
    assert csv_cell_diff.main([a, b]) == 2
    assert csv_cell_diff.main([a, c]) == 2
    assert csv_cell_diff.main([a]) == 2
