import pytest

from journeyshare.errors import ParseError, read_csv

from conftest import write_csv


class TestReadCsv:
    @pytest.mark.parametrize("header", [["only"], ["a", "b"], list("abcdefg")])
    def test_every_row_has_the_header_width_and_blank_rows_are_skipped(self, header):
        width = len(header)
        rows = [",".join(header), "", ",".join("x" * width), "", "", ",".join("y" * width), ""]
        assert list(read_csv(write_csv(rows), header)) == [(3, ["x"] * width), (6, ["y"] * width)]

    @pytest.mark.parametrize(
        "header, n", [(["only"], 2), (["a", "b"], 1), (["a", "b"], 3), (list("abcdefg"), 6), (list("abcdefg"), 8)]
    )
    def test_row_of_another_width_names_its_line(self, header, n):
        width = len(header)
        path = write_csv([",".join(header), ",".join("x" * width), "", ",".join("z" * n)])
        rows = read_csv(path, header)
        assert next(rows) == (2, ["x"] * width)
        with pytest.raises(ParseError) as err:
            next(rows)
        assert str(err.value) == f"{path}:4: expected {width} fields, got {n}"

    def test_cells_are_not_stripped(self):
        path = write_csv([" a , b ", " x ,y"])
        assert list(read_csv(path, ["a", "b"])) == [(2, [" x ", "y"])]
